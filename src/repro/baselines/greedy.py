"""online-greedy: per-slot minimization of the P0 objective (Section V-B).

    "The online-greedy algorithm directly takes the objective value of P0
    and minimizes P0 in every time slot. Decision making is based on the
    outcome of the previous time slot, but considers no future
    possibilities."

Each slot solves the linearized P0 over a one-slot window from the previous
decision: a lookahead of one (:class:`RecedingHorizon` with ``window=1``).
Section II-E shows why this is suboptimal: it can be both too aggressive
(migrating for any instantaneous gain) and too conservative (never
migrating when a one-slot gain looks too small).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.allocation import AllocationSchedule
from ..core.problem import ProblemInstance
from ..simulation.observations import (
    SlotObservation,
    SystemDescription,
    single_slot_instance,
)
from ..simulation.spine import PerSlotController, run_on_spine
from .lookahead import RecedingHorizon


@dataclass(frozen=True)
class OnlineGreedy:
    """Greedy one-shot optimization of each slot's immediate total cost."""

    name: str = "online-greedy"

    def run(self, instance: ProblemInstance) -> AllocationSchedule:
        """Greedily optimize each slot in sequence (via the streaming spine)."""
        result = run_on_spine(self, instance)
        assert result.schedule is not None
        return result.schedule

    def as_controller(self, system: SystemDescription) -> PerSlotController:
        """The causal (streaming) form of this algorithm."""
        return GreedyController(system)

    @staticmethod
    def solve_slot(
        instance: ProblemInstance, slot: int, x_prev: np.ndarray
    ) -> np.ndarray:
        """Minimize this slot's static + transition cost from ``x_prev``."""
        return RecedingHorizon(window=1).solve_window(instance, slot, x_prev)[0]


def GreedyController(system: SystemDescription) -> PerSlotController:
    """Streaming form of :class:`OnlineGreedy`: one slot LP per observation.

    The batch ``run()`` *is* this controller driven over the instance's
    observation stream, so the two decide identically by construction.
    """

    def solve(observation: SlotObservation, x_prev: np.ndarray) -> np.ndarray:
        instance = single_slot_instance(system, observation)
        return OnlineGreedy.solve_slot(instance, 0, x_prev)

    return PerSlotController(
        system=system, solve=solve, name="online-greedy (streaming)"
    )
