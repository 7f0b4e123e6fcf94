"""Discrete-time simulation: the streaming spine, scenarios, and results.

Execution is unified on one per-slot loop —
:func:`repro.simulation.simulate` — that drives any
:class:`OnlineController` over a :class:`SlotObservation` stream with
incremental cost accounting (:class:`CostAccumulator`), per-slot hooks,
checkpoint/resume, and a memory-bounded mode. See docs/ENGINE.md.
"""

# Import order matters: each module here builds only on the ones before it
# (observations -> accounting/hooks -> spine -> controllers -> engine ->
# cells), and nothing imports the baselines at module scope — the baselines
# build on this package.
from .observations import (
    OnlineController,
    SlotObservation,
    SystemDescription,
    iter_observations,
    observations_from_instance,
    single_slot_instance,
)
from .accounting import AccumulatorState, CostAccumulator, SlotCosts
from .hooks import (
    FeasibilityHook,
    ProgressHook,
    SlotHook,
    SolverStatsHook,
    WallTimeHook,
)
from .spine import (
    PerSlotController,
    RecomputeController,
    ScheduleController,
    SimulationCheckpoint,
    SimulationResult,
    SlotStepper,
    controller_for,
    run_on_spine,
    simulate,
)
from .controllers import RegularizedController
from .results import Comparison, RunResult, aggregate_ratios
from .scenario import Scenario
from .engine import compare_algorithms, run_algorithm
from .cells import SweepCell
from .batched import run_cells_batched
from .streaming import replay

__all__ = [
    "AccumulatorState",
    "Comparison",
    "CostAccumulator",
    "FeasibilityHook",
    "GreedyController",
    "OnlineController",
    "PerSlotController",
    "ProgressHook",
    "RecomputeController",
    "RegularizedController",
    "RunResult",
    "Scenario",
    "ScheduleController",
    "SimulationCheckpoint",
    "SimulationResult",
    "SlotCosts",
    "SlotHook",
    "SlotObservation",
    "SlotStepper",
    "SolverStatsHook",
    "SweepCell",
    "SystemDescription",
    "WallTimeHook",
    "aggregate_ratios",
    "compare_algorithms",
    "controller_for",
    "iter_observations",
    "observations_from_instance",
    "replay",
    "run_algorithm",
    "run_cells_batched",
    "run_on_spine",
    "simulate",
    "single_slot_instance",
]


def __getattr__(name: str):
    """Lazily re-export :class:`GreedyController` (lives in the baselines
    layer, which builds on this package)."""
    if name == "GreedyController":
        from ..baselines.greedy import GreedyController

        return GreedyController
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
