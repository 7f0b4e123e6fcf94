"""Discrete-time simulation: the streaming spine, scenarios, and results.

Execution is unified on one per-slot loop —
:func:`repro.simulation.simulate` — that drives any
:class:`OnlineController` over a :class:`SlotObservation` stream with
incremental cost accounting (:class:`CostAccumulator`), checkpoint/resume,
and a memory-bounded mode. See docs/ENGINE.md.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".observations": (
            "OnlineController",
            "SlotObservation",
            "SystemDescription",
            "iter_observations",
            "observations_from_instance",
            "single_slot_instance",
        ),
        ".accounting": ("AccumulatorState", "CostAccumulator", "SlotCosts"),
        ".spine": (
            "PerSlotController",
            "ScheduleController",
            "SimulationCheckpoint",
            "SimulationResult",
            "SlotStepper",
            "controller_for",
            "run_on_spine",
            "simulate",
        ),
        ".controllers": ("RegularizedController",),
        ".results": ("Comparison", "RunResult", "aggregate_ratios"),
        ".scenario": ("Scenario",),
        ".engine": ("compare_algorithms", "run_algorithm"),
        ".cells": ("SweepCell",),
        ".batched": ("run_cells_batched",),
        ".streaming": ("replay",),
    },
)
