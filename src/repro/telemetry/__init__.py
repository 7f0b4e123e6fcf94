"""Lightweight, dependency-free observability for the whole system.

The pieces (docs/OBSERVABILITY.md):

* :class:`MetricsRegistry` — counters, gauges, and histograms keyed by
  dotted names (``solver.ipm.iterations``, ``slot.wall_ms``, ...), plus
  structured events and nestable timing :meth:`~MetricsRegistry.span`
  contexts that record a trace tree per session;
* a global **active registry** (:func:`get_registry`), a
  :class:`NullRegistry` by default so instrumentation is near-free when
  telemetry is off, switched on with :func:`telemetry_session`;
* JSON-lines **run manifests** (:func:`write_manifest` /
  :func:`read_manifest` / :class:`RunRecord`) capturing config, per-slot
  cost events, and final cost breakdowns for later analysis
  (:mod:`repro.analysis.manifests`);
* **event sinks** (:mod:`repro.telemetry.sinks`) — most importantly the
  :class:`StreamingManifestWriter`, which appends the manifest
  incrementally so a live run is observable and memory-bounded
  (:func:`streaming_manifest_session` wires it up in one call);
* **exporters** (:mod:`repro.telemetry.exporters`) — span trees to
  Chrome ``trace_event`` JSON, metric snapshots to OpenMetrics text;
* **alerting** (:mod:`repro.telemetry.alerting`) — one windowed rule
  type for point alerts (solver stall, certificate gap, ratio over
  bound), storms (deadline misses) and two-window SLO burn
  rates, evaluated once over the live event stream, alerts emitted back
  into it;
* the **watch view** (:mod:`repro.telemetry.watch`) — tail a streaming
  manifest and render a refreshing dashboard (``repro-edge watch``);
* **tracing** (:mod:`repro.telemetry.tracing`) — ``TraceContext``
  propagation across process/thread/wire boundaries so merged span
  forests render as one connected tree per run or request;
* **profiling** (:mod:`repro.telemetry.profiling`) — deterministic phase
  timers plus a ``sys._current_frames()`` sampling profiler, folded-stack
  output exportable to speedscope/collapsed formats;
* the **flight recorder** (:mod:`repro.telemetry.flight`) — a bounded
  ring of replayable slot snapshots dumped as ``repro.incident/1``
  bundles on alerts, with bit-for-bit offline replay
  (``repro-edge incident replay``);
* the **environment fingerprint** (:mod:`repro.telemetry.environment`) —
  python/numpy/scipy/BLAS versions and ``REPRO_*`` flags stamped into
  every manifest and incident bundle.

Enabling telemetry never changes results: instrumented code only *reads*
the quantities it reports, and the bit-identity is pinned by
``tests/telemetry/test_integration.py``. The parallel executor gives each
sweep cell a fresh registry and merges the per-worker snapshots
deterministically on join, so metric aggregates are identical at any
worker count.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".alerting": (
            "Alert",
            "AlertEvaluator",
            "AlertSink",
            "Rule",
            "alerting_registry",
            "default_rules",
            "default_slos",
            "firing_objectives",
        ),
        ".exporters": (
            "MetricsEndpoint",
            "chrome_trace",
            "openmetrics",
            "write_chrome_trace",
            "write_openmetrics",
        ),
        ".environment": ("environment_fingerprint",),
        ".flight": (
            "INCIDENT_FORMAT",
            "FlightRecorder",
            "FlightRecorderSink",
            "IncidentBundle",
            "ReplayDiff",
            "ReplayReport",
            "SlotSnapshot",
            "active_recorder",
            "flight_session",
            "read_bundle",
            "replay_bundle",
        ),
        ".manifest": (
            "MANIFEST_FORMAT",
            "RunRecord",
            "read_manifest",
            "write_manifest",
        ),
        ".metrics": (
            "MAX_SPAN_CHILDREN",
            "NULL_REGISTRY",
            "Counter",
            "Gauge",
            "Histogram",
            "MetricsRegistry",
            "NullRegistry",
            "get_registry",
            "set_registry",
            "sketch_upper_edge",
            "span",
            "telemetry_enabled",
            "telemetry_session",
            "thread_registry",
        ),
        ".profiling": (
            "PhaseAccumulator",
            "ProfileHandle",
            "SamplingProfiler",
            "active_profile",
            "merge_folded",
            "phase",
            "profiling_session",
            "speedscope_document",
            "write_collapsed",
            "write_speedscope",
        ),
        ".sinks": (
            "EventSink",
            "NullSink",
            "RingSink",
            "StreamingManifestWriter",
            "streaming_manifest_session",
        ),
        ".tracing": (
            "TraceContext",
            "current_trace",
            "new_trace",
            "trace_scope",
            "trace_span",
            "traced_root",
        ),
        ".spans": ("render_spans", "walk_spans"),
        ".watch": ("ManifestTail", "WatchState", "watch"),
    },
)

# ``watch`` names both a submodule and the function it defines. Binding the
# function now keeps a later ``import repro.telemetry.watch`` from leaving
# the submodule on the package under that name.
from .watch import watch  # noqa: E402
