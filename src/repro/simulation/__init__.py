"""Discrete-time simulation: the streaming spine, scenarios, and results.

Execution is unified on one per-slot loop —
:func:`repro.simulation.simulate` — that drives any
:class:`OnlineController` over a :class:`SlotObservation` stream with
incremental cost accounting (:class:`CostAccumulator`), checkpoint/resume,
and a memory-bounded mode. See docs/ENGINE.md.
"""

# Import order matters: each module here builds only on the ones before it
# (observations -> accounting -> spine -> controllers -> engine ->
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
from .spine import (
    PerSlotController,
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
    "OnlineController",
    "PerSlotController",
    "RegularizedController",
    "RunResult",
    "Scenario",
    "ScheduleController",
    "SimulationCheckpoint",
    "SimulationResult",
    "SlotCosts",
    "SlotObservation",
    "SlotStepper",
    "SweepCell",
    "SystemDescription",
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

