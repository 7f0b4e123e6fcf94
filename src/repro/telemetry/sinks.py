"""Event sinks: stream telemetry events out of the process as they happen.

PR 3's manifest writer buffers every event in memory and serializes the
lot after the run ends — a crash loses everything and a multi-hour sweep
grows without bound. Sinks fix both: a :class:`MetricsRegistry` created
with ``sink=...`` forwards every event to the sink *at emission time*, so

* :class:`StreamingManifestWriter` appends manifest lines incrementally
  (``manifest_start`` first, then one line per event, metrics/spans/
  ``manifest_end`` at :meth:`~StreamingManifestWriter.finalize`) with a
  configurable flush policy — the file is a valid *partial* manifest at
  every instant (``read_manifest(path, strict=False)``) and a fully
  verifiable one after finalize;
* :class:`RingSink` keeps only the newest N records in memory with a
  dropped-record counter — the bounded companion for ad-hoc consumers;
* :class:`NullSink` discards records — the attachment point for pure
  event *observers* such as the alerting host
  (:class:`repro.telemetry.alerting.AlertSink`).

Combined with ``MetricsRegistry(max_events=0)`` and the spine's
``keep_schedule=False`` mode, a streaming run is memory-bounded end to
end while losing no telemetry. :func:`streaming_manifest_session` wires
the whole stack up in one call. Enabling any of it never changes
computed results — sinks only observe the event stream.
"""

from __future__ import annotations

import json
import time
from collections import deque
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Sequence

from .environment import environment_fingerprint
from .manifest import MANIFEST_FORMAT, _jsonify
from .metrics import MetricsRegistry, telemetry_session

#: Default number of emitted events between forced file flushes.
DEFAULT_FLUSH_EVERY = 64

#: Default maximum seconds a written event may sit unflushed.
DEFAULT_FLUSH_INTERVAL_S = 0.5


class EventSink:
    """The sink interface: receive event records, flush, close.

    Subclasses override :meth:`emit`; the flush/close hooks default to
    no-ops so purely in-memory sinks stay trivial.
    """

    def emit(self, record: dict) -> None:
        """Receive one event record (a plain JSON-able dict with ``type``)."""
        raise NotImplementedError

    def flush(self) -> None:
        """Force any buffered output out (no-op by default)."""

    def maybe_flush(self) -> None:
        """Flush if the sink's own time policy says so (no-op by default)."""

    def close(self) -> None:
        """Release resources; the sink accepts no records afterwards."""


class NullSink(EventSink):
    """A sink that discards every record.

    Useful as the inner sink of a wrapper that only *observes* the stream
    (e.g. an alerting host evaluating rules without writing a manifest).
    """

    def emit(self, record: dict) -> None:
        """Discard the record."""


class RingSink(EventSink):
    """A bounded in-memory sink: keeps the newest ``capacity`` records.

    Attributes:
        records: the retained records, oldest first.
        emitted: total records ever emitted.
        dropped: records evicted after the ring filled up.
    """

    def __init__(self, capacity: int = 1024) -> None:
        """Create the ring with room for ``capacity`` records."""
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self.records: deque[dict] = deque(maxlen=capacity)
        self.emitted = 0
        self.dropped = 0

    def emit(self, record: dict) -> None:
        """Retain the record, evicting (and counting) the oldest when full."""
        self.emitted += 1
        if len(self.records) >= self.capacity:
            self.dropped += 1
            if self.capacity == 0:
                return
        self.records.append(record)


class StreamingManifestWriter(EventSink):
    """Append a run manifest incrementally, flushing on a configurable policy.

    The file is written in the exact layout of
    :func:`repro.telemetry.manifest.write_manifest` — ``manifest_start``
    immediately at construction (and flushed, so a watcher sees the config
    at once), one line per emitted event, then ``metrics``/``spans``/
    ``manifest_end`` at :meth:`finalize`. Until finalize the file is a
    readable *partial* manifest: ``read_manifest(path, strict=False)``
    returns every complete record with ``truncated=True`` — which is what
    ``repro-edge watch`` tails.

    Flush policy: an emitted event is flushed to disk once either
    ``flush_every`` events accumulated since the last flush or
    ``flush_interval_s`` seconds elapsed (checked at emit time and by
    :meth:`maybe_flush`, which the spine calls once per slot).

    Attributes:
        path: the manifest file being written.
        events_written: event lines emitted so far (the eventual
            ``manifest_end`` count).
    """

    def __init__(
        self,
        path: str | Path,
        *,
        config: dict | None = None,
        flush_every: int = DEFAULT_FLUSH_EVERY,
        flush_interval_s: float = DEFAULT_FLUSH_INTERVAL_S,
        streaming: bool = True,
    ) -> None:
        """Open (truncate) ``path`` and write the ``manifest_start`` line.

        ``streaming`` is recorded in that line: ``False`` when
        :func:`repro.telemetry.manifest.write_manifest` writes a finished
        run's buffered events in one go.
        """
        if flush_every < 1:
            raise ValueError(f"flush_every must be >= 1, got {flush_every}")
        self.path = Path(path)
        self.flush_every = flush_every
        self.flush_interval_s = float(flush_interval_s)
        self.events_written = 0
        self._pending = 0
        self._closed = False
        self._last_flush = time.monotonic()
        self._handle = self.path.open("w", encoding="utf-8")
        self._write(
            {
                "type": "manifest_start",
                "format": MANIFEST_FORMAT,
                "created_unix": time.time(),
                "config": config or {},
                "environment": environment_fingerprint(),
                "streaming": streaming,
            }
        )
        self.flush()

    # ----- sink interface -----------------------------------------------------

    def emit(self, record: dict) -> None:
        """Append one event line; flush when the policy says so."""
        if self._closed:
            raise ValueError(f"{self.path}: manifest already finalized")
        self._write(record)
        self.events_written += 1
        self._pending += 1
        if (
            self._pending >= self.flush_every
            or time.monotonic() - self._last_flush >= self.flush_interval_s
        ):
            self.flush()

    def flush(self) -> None:
        """Push buffered lines to the OS so a concurrent reader sees them."""
        if not self._closed:
            self._handle.flush()
        self._pending = 0
        self._last_flush = time.monotonic()

    def maybe_flush(self) -> None:
        """Flush pending lines once the time interval has elapsed."""
        if (
            self._pending
            and time.monotonic() - self._last_flush >= self.flush_interval_s
        ):
            self.flush()

    def close(self) -> None:
        """Finalize without a registry (empty metrics/spans sections)."""
        self.finalize(None)

    # ----- manifest completion ------------------------------------------------

    def finalize(self, registry: MetricsRegistry | None = None) -> Path:
        """Write the trailing metrics/spans/``manifest_end`` lines and close.

        Args:
            registry: the session registry whose metric aggregates and
                span trees complete the manifest; ``None`` writes empty
                sections (events remain — the file still verifies).

        Returns:
            The manifest path. Idempotent: later calls are no-ops.
        """
        if self._closed:
            return self.path
        snap = (
            registry.snapshot()
            if registry is not None
            else {"counters": {}, "gauges": {}, "histograms": {}, "spans": []}
        )
        self._write(
            {
                "type": "metrics",
                "counters": snap["counters"],
                "gauges": snap["gauges"],
                "histograms": snap["histograms"],
            }
        )
        self._write({"type": "spans", "spans": snap["spans"]})
        self._write({"type": "manifest_end", "events": self.events_written})
        self._handle.flush()
        self._handle.close()
        self._closed = True
        return self.path

    def __enter__(self) -> "StreamingManifestWriter":
        """Context-manager entry: the open writer itself."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Finalize on exit (no-op if already finalized explicitly)."""
        self.close()

    # ----- internals ----------------------------------------------------------

    def _write(self, record: dict) -> None:
        self._handle.write(json.dumps(record, default=_jsonify) + "\n")


@contextmanager
def streaming_manifest_session(
    path: str | Path | None,
    *,
    config: dict | None = None,
    max_events: int = 0,
    flush_every: int = DEFAULT_FLUSH_EVERY,
    flush_interval_s: float = DEFAULT_FLUSH_INTERVAL_S,
    rules: "Sequence" = (),
    recorder=None,
) -> Iterator[MetricsRegistry]:
    """Run a block under a registry that streams its events to a manifest.

    The one-call form of the streaming stack, and the one place a run's
    sink chain is built — every CLI command runs under it::

        with streaming_manifest_session("run.jsonl", config=cfg) as registry:
            run_fig2(scale)             # events appear in run.jsonl live

    A fresh registry is installed as the active one (like
    :func:`repro.telemetry.telemetry_session`); its events stream through
    a :class:`StreamingManifestWriter` on the alerting sink chain of
    :func:`repro.telemetry.alerting.alerting_registry`, so rule alerts and
    ``slo.burn`` transitions land in the manifest next to the events that
    raised them. The manifest is finalized on exit (exceptions included:
    a crashed block still leaves every streamed event on disk).

    Args:
        path: the manifest file to stream into; ``None`` writes no file
            (the chain still hosts the rules and the recorder).
        config: JSON-able run configuration for ``manifest_start``.
        max_events: in-memory event bound for the registry — default 0
            (keep nothing in memory; the manifest holds the stream), the
            memory-bounded mode. Pass ``None`` to also keep every event
            in memory.
        flush_every, flush_interval_s: the writer's flush policy.
        rules: alerting rules evaluated live over the stream
            (:class:`repro.telemetry.alerting.Rule`; e.g.
            ``default_rules() + default_slos()``); empty evaluates none.
        recorder: optional :class:`repro.telemetry.flight.FlightRecorder`
            — the stream is teed into it (outermost, so emitted alerts
            trigger incident dumps), and it is installed process-wide
            (:func:`repro.telemetry.flight.flight_session`) for the block,
            so every slot stepped inside it is snapshotted.
    """
    # lazy: alerting and flight build on sinks
    from .alerting import alerting_registry
    from .flight import active_recorder, flight_session

    writer = None
    if path is not None:
        writer = StreamingManifestWriter(
            path,
            config=config,
            flush_every=flush_every,
            flush_interval_s=flush_interval_s,
        )
    registry = alerting_registry(
        writer, rules=rules, recorder=recorder, max_events=max_events
    )
    installed = recorder if recorder is not None else active_recorder()
    try:
        with telemetry_session(registry), flight_session(installed):
            yield registry
    finally:
        if writer is not None:
            writer.finalize(registry)
