"""The live allocation service: streamed slots, deadline-budgeted solves.

The batch spine answers "what would the algorithm have paid over this
trace"; this package answers "can it keep up *while the trace happens*".
One :class:`AllocationSession` wraps the identical per-slot body
(:class:`repro.simulation.spine.SlotStepper`) behind a JSON-lines
protocol; :class:`AllocationServer` exposes it over asyncio TCP (or
stdio), with optional wall-clock slot ticks and a live OpenMetrics
``/metrics`` endpoint; :func:`run_loadgen` replays traces at a chosen
speed and reports latency percentiles plus the realized-vs-batch cost
delta. Solves run under a :class:`repro.solvers.SolveBudget` — when the
deadline fires, the last strictly feasible iterate is repaired
and served, degradation recorded as ``service.deadline.*`` telemetry.

Entry points: ``repro-edge serve`` / ``repro-edge loadgen``; the full
architecture and the degradation ladder are in docs/SERVING.md.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".config": ("ServiceConfig",),
        ".loadgen": ("LoadgenReport", "batch_reference_cost", "run_loadgen"),
        ".protocol": (
            "ProtocolError",
            "encode",
            "observation_to_update",
            "parse_message",
            "parse_update",
        ),
        ".server": ("AllocationServer", "serve_stdio"),
        ".session": ("AllocationSession", "ServiceSlotResult", "percentile"),
    },
)
