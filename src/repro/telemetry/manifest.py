"""JSON-lines run manifests: persist one session's telemetry to a file.

A manifest is an append-friendly ``.jsonl`` file: one JSON object per
line, each carrying a ``"type"`` field. The layout (see
docs/OBSERVABILITY.md for the full schema):

1. ``manifest_start`` — format tag, creation time, and the run config;
2. the session's events in recorded order — ``slot`` lines (one per
   accounted slot, with the four unweighted cost components and the
   weighted total), ``run_end`` lines (one per algorithm run, with the
   final cost breakdown totals), plus any ad-hoc events (e.g.
   ``solver.ipm.trace``);
3. ``metrics`` — the registry's counters/gauges/histograms snapshot;
4. ``spans`` — the session's trace trees;
5. ``manifest_end`` — an event count, as a truncation check.

:func:`read_manifest` loads a manifest back into a :class:`RunRecord`;
:mod:`repro.analysis.manifests` builds cost-consistency checks on top.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .metrics import MetricsRegistry

#: Format tag written into every manifest (bump on breaking change).
MANIFEST_FORMAT = "repro.telemetry/1"


def _jsonify(value):
    """JSON fallback for numpy scalars/arrays and other non-native values."""
    if hasattr(value, "tolist"):  # numpy scalar or array, any shape
        return value.tolist()
    return str(value)


@dataclass(frozen=True)
class RunRecord:
    """An in-memory manifest: config, events, metrics, and spans.

    Attributes:
        config: the run configuration written at ``manifest_start``.
        environment: the writing process's environment fingerprint
            (python/numpy/scipy/BLAS versions, ``REPRO_*`` flags — see
            :func:`repro.telemetry.environment.environment_fingerprint`),
            also from ``manifest_start``; empty for pre-fingerprint files.
        events: every event line in file order (each a dict with ``type``).
        counters: metric name -> accumulated value.
        gauges: metric name -> last value.
        histograms: metric name -> ``{count, total, min, max, mean}``.
        spans: root nodes of the session's trace trees.
        created_unix: manifest creation time (seconds since the epoch).
        truncated: the file ended before a consistent ``manifest_end``
            (only ever ``True`` for non-strict loads).
    """

    config: dict = field(default_factory=dict)
    environment: dict = field(default_factory=dict)
    events: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    gauges: dict = field(default_factory=dict)
    histograms: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)
    created_unix: float = 0.0
    truncated: bool = False

    def events_of_type(self, kind: str) -> list[dict]:
        """Every event whose ``"type"`` equals ``kind``, in file order."""
        return [event for event in self.events if event.get("type") == kind]

    @property
    def slot_events(self) -> list[dict]:
        """The per-slot cost events (``type == "slot"``)."""
        return self.events_of_type("slot")

    @property
    def run_ends(self) -> list[dict]:
        """The per-run summary events (``type == "run_end"``)."""
        return self.events_of_type("run_end")


def write_manifest(
    path: str | Path,
    registry: MetricsRegistry,
    *,
    config: dict | None = None,
) -> Path:
    """Write one session's telemetry as a JSON-lines manifest.

    The buffered form of :class:`repro.telemetry.sinks.StreamingManifestWriter`:
    the registry's retained events are written through that writer after
    the run, and its ``manifest_start`` carries ``"streaming": false``.

    Args:
        path: destination file (created or truncated).
        registry: the session registry to persist (typically the one a
            :func:`repro.telemetry.telemetry_session` yielded).
        config: arbitrary JSON-able run configuration stored in the
            ``manifest_start`` line (CLI args, scenario parameters, ...).

    Returns:
        The path written.
    """
    from .sinks import StreamingManifestWriter  # lazy: sinks build on this module

    writer = StreamingManifestWriter(path, config=config, streaming=False)
    for event in registry.events:
        writer.emit(event)
    return writer.finalize(registry)


def read_manifest(path: str | Path, *, strict: bool = True) -> RunRecord:
    """Load a manifest written by :func:`write_manifest`.

    Raises ``ValueError`` naming the file when it is not a run manifest
    (its first complete record is not ``manifest_start`` — an incident
    bundle, an empty file, unparseable text), on an unknown format tag,
    and on a truncated file (missing or inconsistent ``manifest_end``);
    the first check applies in both modes. With ``strict=False``
    truncation is tolerated instead: a torn trailing line is dropped, every
    complete record before it is kept, and the returned record carries
    ``truncated=True`` — for post-mortem tooling (``repro-edge doctor``)
    that must read the manifests of crashed or killed runs.
    """
    path = Path(path)
    config: dict = {}
    environment: dict = {}
    created = 0.0
    events: list[dict] = []
    counters: dict = {}
    gauges: dict = {}
    histograms: dict = {}
    spans: list = []
    started = ended = False
    with path.open("r", encoding="utf-8", errors="replace") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                record = None
            if not isinstance(record, dict):
                if strict or not started:
                    raise ValueError(
                        f"{path}: unparseable manifest line {line_number}"
                    )
                break  # torn tail of an interrupted write
            kind = record.get("type")
            if not started and kind != "manifest_start":
                raise ValueError(
                    f"{path}: not a run manifest (first record is {kind!r}, "
                    "not 'manifest_start')"
                )
            if kind == "manifest_start":
                started = True
                if record.get("format") != MANIFEST_FORMAT:
                    raise ValueError(
                        f"{path}: unknown manifest format {record.get('format')!r}"
                    )
                config = record.get("config", {})
                environment = record.get("environment", {})
                created = float(record.get("created_unix", 0.0))
            elif kind == "metrics":
                counters = record.get("counters", {})
                gauges = record.get("gauges", {})
                histograms = record.get("histograms", {})
            elif kind == "spans":
                spans = record.get("spans", [])
            elif kind == "manifest_end":
                ended = True
                if int(record.get("events", -1)) != len(events):
                    raise ValueError(
                        f"{path}: manifest_end reports {record.get('events')} "
                        f"events, file holds {len(events)} (line {line_number})"
                    )
            else:
                events.append(record)
    if not started:
        raise ValueError(f"{path}: not a run manifest (no manifest_start record)")
    if not ended and strict:
        raise ValueError(f"{path}: truncated manifest (no manifest_end record)")
    return RunRecord(
        config=config,
        environment=environment,
        events=events,
        counters=counters,
        gauges=gauges,
        histograms=histograms,
        spans=spans,
        created_unix=created,
        truncated=not ended,
    )
