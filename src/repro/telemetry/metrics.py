"""Metrics primitives: counters, gauges, histograms, and their registry.

The registry is the heart of :mod:`repro.telemetry`: every instrumented
site asks :func:`get_registry` for the active registry and records into it.
By default the active registry is a shared :class:`NullRegistry` whose
every operation is a no-op on a cached singleton, so instrumentation costs
one global read plus an attribute check when telemetry is off — and the
recorded numbers never feed back into any computation, so results are
bit-identical either way (pinned by ``tests/telemetry/test_integration.py``).

Design constraints (docs/OBSERVABILITY.md):

* **dependency-free** — stdlib only, importable from every layer
  (including :mod:`repro.parallel`, a dependency leaf);
* **picklable aggregation** — :meth:`MetricsRegistry.snapshot` returns a
  plain-dict snapshot a process-pool worker can ship home, and
  :meth:`MetricsRegistry.merge_snapshot` folds snapshots in a
  deterministic (caller-chosen) order so parallel and serial sweeps
  aggregate to the same numbers;
* **associative merges** — counters add, histograms merge by
  (count, total, min, max) plus integer sketch-bucket counts, so
  regrouping worker snapshots cannot change the result (property-tested
  in ``tests/telemetry/test_metrics.py``).
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # type-only: sinks build on this module
    from .sinks import EventSink

#: Children recorded under one span before further siblings are dropped
#: (long memory-bounded runs would otherwise grow an unbounded trace tree;
#: drops are counted in the ``telemetry.spans.dropped`` counter).
MAX_SPAN_CHILDREN = 4096

#: Lower edge of the histogram percentile sketch: observations at or below
#: this value land in bucket 0 (which also absorbs zeros and negatives).
SKETCH_MIN = 1e-6

#: Upper edge of the sketch; larger observations clamp into the top bucket.
SKETCH_MAX = 1e9

#: Geometric resolution: buckets per decade. 16/decade keeps the relative
#: quantile error under ~7.5% (half a bucket) across the full range while
#: the whole sketch stays under ~250 possible buckets.
SKETCH_BUCKETS_PER_DECADE = 16

#: Log-space width of one sketch bucket.
_BUCKET_WIDTH = math.log(10.0) / SKETCH_BUCKETS_PER_DECADE

#: Index of the last (clamping) bucket.
_MAX_BUCKET = 1 + int(math.ceil(math.log(SKETCH_MAX / SKETCH_MIN) / _BUCKET_WIDTH))


def sketch_bucket(value: float) -> int:
    """The sketch bucket index for one observation.

    Pure function of the value, so bucketing is deterministic across
    processes and merging bucket counts (integer addition) is exactly
    associative — the property the parallel executor relies on.
    """
    if value <= SKETCH_MIN:
        return 0
    index = 1 + int(math.log(value / SKETCH_MIN) / _BUCKET_WIDTH)
    return index if index < _MAX_BUCKET else _MAX_BUCKET


def sketch_upper_edge(index: int) -> float:
    """The largest value landing in sketch bucket ``index``.

    Bucket 0 tops out at :data:`SKETCH_MIN`; the final (clamping) bucket
    absorbs everything above :data:`SKETCH_MAX`, so its edge is ``inf``.
    The OpenMetrics exporter uses these edges as its ``le`` labels.
    """
    if index <= 0:
        return SKETCH_MIN
    if index >= _MAX_BUCKET:
        return float("inf")
    return SKETCH_MIN * math.exp(index * _BUCKET_WIDTH)


class Counter:
    """A monotonically accumulating value (e.g. ``solver.ipm.solves``)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        """Create the counter at zero."""
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (default 1) to the counter."""
        self.value += amount


class Gauge:
    """A last-write-wins value (e.g. ``sweep.workers``)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        """Create the gauge at zero."""
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        """Record the current value."""
        self.value = float(value)


class Histogram:
    """A streaming summary of observations: moments plus a quantile sketch.

    Tracks the exact count/total/min/max (which merge exactly) and a
    fixed-bucket geometric sketch (:func:`sketch_bucket`) from which
    p50/p95/p99 are read. Bucket counts are integers and bucket placement
    is a pure function of the value, so merging histograms stays exactly
    associative across workers (property-tested in
    ``tests/telemetry/test_metrics.py``).
    """

    __slots__ = ("name", "count", "total", "minimum", "maximum", "buckets")

    def __init__(self, name: str) -> None:
        """Create an empty histogram."""
        self.name = name
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")
        self.buckets: dict[int, int] = {}

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        index = sketch_bucket(value)
        self.buckets[index] = self.buckets.get(index, 0) + 1

    @property
    def mean(self) -> float:
        """Mean of the recorded observations (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float | None:
        """The ``q``-quantile (``0 < q <= 1``) read from the sketch.

        Accurate to half a bucket (~±7.5% relative) within the sketch
        range; the result is clamped into ``[min, max]`` so single-bucket
        histograms report exact values. ``None`` when empty.
        """
        if not self.count:
            return None
        rank = q * self.count
        cumulative = 0
        for index in sorted(self.buckets):
            cumulative += self.buckets[index]
            if cumulative >= rank:
                if index == 0:
                    value = min(self.minimum, SKETCH_MIN)
                else:
                    value = SKETCH_MIN * math.exp((index - 0.5) * _BUCKET_WIDTH)
                return min(max(value, self.minimum), self.maximum)
        return self.maximum

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram (or snapshot-equivalent) into this one."""
        self.count += other.count
        self.total += other.total
        if other.minimum < self.minimum:
            self.minimum = other.minimum
        if other.maximum > self.maximum:
            self.maximum = other.maximum
        for index, bucket_count in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + bucket_count

    def as_dict(self) -> dict:
        """Plain-dict form used by snapshots and the manifest."""
        return {
            "count": self.count,
            "total": self.total,
            "min": self.minimum if self.count else None,
            "max": self.maximum if self.count else None,
            "mean": self.mean,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
            "buckets": dict(self.buckets),
        }


class MetricsRegistry:
    """A live collection of metrics, events, and spans for one session.

    Instrumented code records through :meth:`counter` / :meth:`gauge` /
    :meth:`histogram` / :meth:`event` / :meth:`span`; orchestration code
    reads the aggregate out via :meth:`snapshot` or renders it with
    :meth:`summary_table`. Registries are cheap; the parallel executor
    creates one per sweep cell and merges the snapshots deterministically
    on join.
    """

    #: Class-level flag instrumentation checks before doing optional work.
    enabled = True

    def __init__(
        self,
        *,
        sink: "EventSink | None" = None,
        max_events: int | None = None,
    ) -> None:
        """Create an empty registry.

        Args:
            sink: optional event sink (:mod:`repro.telemetry.sinks`); every
                event is forwarded to it at emission time, *before* any
                in-memory bounding, so a streaming manifest always holds
                the full event stream.
            max_events: bound on the in-memory ``events`` buffer. ``None``
                (the default) keeps every event, preserving the historical
                unbounded-list behavior; ``N`` keeps only the newest ``N``
                (a ring buffer), counting evictions in the
                ``telemetry.events.dropped`` counter; ``0`` keeps nothing
                in memory and counts nothing — the memory-bounded
                streaming mode.
        """
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        if max_events is not None and max_events < 0:
            raise ValueError(f"max_events must be >= 0 or None, got {max_events}")
        self.sink = sink
        self.max_events = max_events
        self.events: "list[dict] | deque[dict]" = (
            [] if max_events is None else deque(maxlen=max_events)
        )
        self.spans: list[dict] = []
        self._span_stack: list[dict] = []
        self._context: dict = {}
        self._run_counter = 0

    # ----- metric accessors ---------------------------------------------------

    def counter(self, name: str) -> Counter:
        """Get or create the counter registered under ``name``."""
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge registered under ``name``."""
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge(name)
        return gauge

    def histogram(self, name: str) -> Histogram:
        """Get or create the histogram registered under ``name``."""
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(name)
        return histogram

    # ----- events and context -------------------------------------------------

    def event(self, kind: str, **payload) -> None:
        """Append one structured event (a manifest line) tagged with the
        active context; ``kind`` becomes the record's ``"type"`` field.

        With a bounded buffer (``max_events``) the oldest in-memory record
        is evicted (and counted) once the ring is full; a sink attached to
        the registry receives every record regardless of the bound. The
        record is buffered before it is streamed, so a sink that emits
        follow-up events re-entrantly (the alerting host's ``alert`` records)
        keeps stream order and buffer order identical.
        """
        record = {"type": kind, **self._context, **payload}
        self._append_event(record)
        if self.sink is not None:
            self.sink.emit(record)

    def _append_event(self, record: dict) -> None:
        """Buffer one event record, honoring the ``max_events`` bound."""
        cap = self.max_events
        if cap == 0:
            return  # streaming mode: the sink holds the stream, nothing is dropped
        if cap is not None and len(self.events) >= cap:
            self.counter("telemetry.events.dropped").inc()
        self.events.append(record)

    def flush(self) -> None:
        """Flush the attached sink, if any (no-op otherwise)."""
        if self.sink is not None:
            self.sink.flush()

    def maybe_flush(self) -> None:
        """Give the attached sink a chance to flush on its time policy.

        Hot loops (the spine's slot loop) call this once per iteration so
        a time-based flush interval takes effect even when the sink's
        event-count threshold has not been reached.
        """
        if self.sink is not None:
            self.sink.maybe_flush()

    @contextmanager
    def context(self, **tags) -> Iterator[None]:
        """Tag every event/span recorded inside the block with ``tags``.

        Contexts nest: inner tags shadow outer ones for the duration of
        the inner block and are restored on exit.
        """
        if not tags:
            yield
            return
        previous = self._context
        self._context = {**previous, **tags}
        try:
            yield
        finally:
            self._context = previous

    def next_run_id(self) -> int:
        """A registry-unique id for one algorithm run (tags its events)."""
        self._run_counter += 1
        return self._run_counter

    # ----- spans ----------------------------------------------------------------

    @contextmanager
    def span(self, name: str, **meta) -> Iterator[dict]:
        """Time a block and record it as a node of the session's trace tree.

        Spans nest: a span opened inside another becomes its child. The
        yielded dict is the live node — callers may add keys to its
        ``"meta"`` entry before the block exits. Each parent keeps at most
        :data:`MAX_SPAN_CHILDREN` children; overflow is dropped and counted
        under ``telemetry.spans.dropped``.
        """
        node: dict = {"name": name, "duration_ms": 0.0, "children": []}
        if meta or self._context:
            node["meta"] = {**self._context, **meta}
        siblings = self._span_stack[-1]["children"] if self._span_stack else self.spans
        if len(siblings) < MAX_SPAN_CHILDREN:
            siblings.append(node)
        else:
            self.counter("telemetry.spans.dropped").inc()
        self._span_stack.append(node)
        start = time.perf_counter()
        try:
            yield node
        finally:
            node["duration_ms"] = (time.perf_counter() - start) * 1000.0
            self._span_stack.pop()

    # ----- aggregation ----------------------------------------------------------

    def snapshot(self) -> dict:
        """A plain-dict, picklable copy of everything recorded so far.

        The shape is the one the manifest stores: ``counters`` and
        ``gauges`` map name -> value, ``histograms`` map name ->
        :meth:`Histogram.as_dict`, ``events`` and ``spans`` are lists.
        """
        return {
            "counters": {n: c.value for n, c in self._counters.items()},
            "gauges": {n: g.value for n, g in self._gauges.items()},
            "histograms": {n: h.as_dict() for n, h in self._histograms.items()},
            "events": list(self.events),
            "spans": list(self.spans),
        }

    def merge_snapshot(self, snap: dict) -> None:
        """Fold a :meth:`snapshot` into this registry.

        Counters add, gauges take the snapshot's value (last write in merge
        order wins), histograms merge their moments and sketch buckets,
        events and spans are appended in order. Merging is associative, so any grouping of
        worker snapshots — as long as the caller fixes the merge *order* —
        produces identical aggregates.
        """
        for name, value in snap.get("counters", {}).items():
            self.counter(name).value += value
        for name, value in snap.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, data in snap.get("histograms", {}).items():
            histogram = self.histogram(name)
            histogram.count += int(data["count"])
            histogram.total += float(data["total"])
            if data["min"] is not None and data["min"] < histogram.minimum:
                histogram.minimum = data["min"]
            if data["max"] is not None and data["max"] > histogram.maximum:
                histogram.maximum = data["max"]
            # JSON round-trips bucket keys as strings; coerce back to int.
            for key, bucket_count in data.get("buckets", {}).items():
                index = int(key)
                histogram.buckets[index] = (
                    histogram.buckets.get(index, 0) + int(bucket_count)
                )
        for record in snap.get("events", ()):
            # Route merged events through the sink too: this is how a
            # parallel sweep's per-worker events stream into a live
            # manifest — in the deterministic merge order.
            if self.sink is not None:
                self.sink.emit(record)
            self._append_event(record)
        self.spans.extend(snap.get("spans", ()))

    def summary_table(self) -> str:
        """Render every metric as an aligned plain-text table, sorted by name."""
        rows: list[tuple[str, str, str]] = []
        for name in sorted(self._counters):
            rows.append((name, "counter", f"{self._counters[name].value:g}"))
        for name in sorted(self._gauges):
            rows.append((name, "gauge", f"{self._gauges[name].value:g}"))
        for name in sorted(self._histograms):
            h = self._histograms[name]
            p50, p95, p99 = (
                h.percentile(0.50) or 0.0,
                h.percentile(0.95) or 0.0,
                h.percentile(0.99) or 0.0,
            )
            rows.append(
                (
                    name,
                    "histogram",
                    f"count={h.count} mean={h.mean:.3f} "
                    f"min={h.minimum if h.count else 0:.3f} "
                    f"max={h.maximum if h.count else 0:.3f} "
                    f"p50={p50:.3f} p95={p95:.3f} p99={p99:.3f}",
                )
            )
        if not rows:
            return "metrics: (none recorded)"
        width_name = max(len(r[0]) for r in rows)
        width_type = max(len(r[1]) for r in rows)
        lines = ["metrics summary", "-" * len("metrics summary")]
        lines += [
            f"{name:<{width_name}}  {kind:<{width_type}}  {value}"
            for name, kind, value in rows
        ]
        return "\n".join(lines)


class _NullCounter(Counter):
    """Counter that discards increments (the disabled-telemetry path)."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        """Discard the increment."""


class _NullGauge(Gauge):
    """Gauge that discards writes (the disabled-telemetry path)."""

    __slots__ = ()

    def set(self, value: float) -> None:
        """Discard the value."""


class _NullHistogram(Histogram):
    """Histogram that discards observations (the disabled-telemetry path)."""

    __slots__ = ()

    def observe(self, value: float) -> None:
        """Discard the observation."""


class _NullSpan:
    """A reusable, reentrant no-op context manager for disabled spans."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info) -> bool:
        return False


class NullRegistry(MetricsRegistry):
    """The disabled registry: every operation is a no-op on a cached singleton.

    This is the default active registry, so instrumented hot paths pay one
    global read plus (at most) a no-op method call per recording site when
    telemetry is off.
    """

    enabled = False

    def __init__(self) -> None:
        """Create the shared no-op instruments."""
        super().__init__()
        self._null_counter = _NullCounter("null")
        self._null_gauge = _NullGauge("null")
        self._null_histogram = _NullHistogram("null")
        self._null_span = _NullSpan()

    def counter(self, name: str) -> Counter:
        """The shared no-op counter."""
        return self._null_counter

    def gauge(self, name: str) -> Gauge:
        """The shared no-op gauge."""
        return self._null_gauge

    def histogram(self, name: str) -> Histogram:
        """The shared no-op histogram."""
        return self._null_histogram

    def event(self, kind: str, **payload) -> None:
        """Discard the event."""

    def context(self, **tags) -> "_NullSpan":  # type: ignore[override]
        """A no-op context block."""
        return self._null_span

    def span(self, name: str, **meta) -> "_NullSpan":  # type: ignore[override]
        """A no-op span block."""
        return self._null_span

    def next_run_id(self) -> int:
        """Run ids are meaningless when disabled; always 0."""
        return 0


#: The process-wide disabled registry (the default active registry).
NULL_REGISTRY = NullRegistry()

_active: MetricsRegistry = NULL_REGISTRY

#: Per-thread registry overrides. The batched sweep runner executes many
#: cells concurrently on threads of one process; each cell must record into
#: its own fresh registry (exactly as the process-pool path gives every cell
#: a fresh worker-side registry), so a thread-local override shadows the
#: process-wide active registry when set. The common single-threaded paths
#: never set it, paying only one ``getattr`` per :func:`get_registry` call.
_thread_override = threading.local()


def get_registry() -> MetricsRegistry:
    """The currently active registry (the shared null registry by default).

    A thread-local override installed by :func:`thread_registry` wins over
    the process-wide registry; without one, every thread sees the registry
    installed by :func:`set_registry`.
    """
    override = getattr(_thread_override, "registry", None)
    return override if override is not None else _active


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Install ``registry`` as the active one; returns the previous registry."""
    global _active
    previous = _active
    _active = registry
    return previous


@contextmanager
def thread_registry(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Activate ``registry`` for the current thread only, for one block.

    Other threads (and code outside the block on this thread) keep seeing
    the process-wide registry. Overrides nest per thread; the previous
    override is restored on exit.
    """
    previous = getattr(_thread_override, "registry", None)
    _thread_override.registry = registry
    try:
        yield registry
    finally:
        _thread_override.registry = previous


def telemetry_enabled() -> bool:
    """Whether the active registry records anything."""
    return get_registry().enabled


@contextmanager
def telemetry_session(
    registry: MetricsRegistry | None = None,
) -> Iterator[MetricsRegistry]:
    """Activate a (fresh or supplied) registry for the duration of a block.

    The previously active registry is restored on exit, so sessions nest
    and test isolation is automatic::

        with telemetry_session() as registry:
            run_fig2(scale)
        print(registry.summary_table())
    """
    registry = registry if registry is not None else MetricsRegistry()
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)


def span(name: str, **meta):
    """Open a span on the active registry (module-level convenience)."""
    return get_registry().span(name, **meta)
