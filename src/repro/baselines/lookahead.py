"""Receding-horizon (lookahead) allocation.

Related work the paper contrasts with (e.g. dynamic service placement with
*predicted future costs*) assumes a prediction window. This baseline makes
that assumption explicit: at each slot it sees the next ``window`` slots of
prices and attachments *exactly* (a perfect predictor), solves the
multi-slot linearized P0 over the window starting from the current
allocation, commits only the first slot, and rolls forward.

It interpolates between the paper's comparison points:

* ``window = 1``  — online-greedy, whose slot LP is this one-slot window;
* ``window = T``  — offline-opt, whose LP has the first window's optimum.

Greedy builds its LP with :func:`repro.baselines.base.windowed_p0_lp`, so
the first identity holds by construction; offline-opt builds the same LP
with Lemma 1's folded migration block, so the second holds for the optimum.

The lookahead ablation (``benchmarks/bench_lookahead.py``) measures how
much *perfect* prediction buys over the prediction-free online-approx,
which needs none.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.allocation import AllocationSchedule
from ..core.problem import ProblemInstance
from ..simulation.observations import SystemDescription
from ..simulation.spine import PerSlotController, run_on_spine
from .base import windowed_p0_lp


@dataclass(frozen=True)
class RecedingHorizon:
    """Solve a ``window``-slot LP each slot, commit the first decision."""

    window: int = 3

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError("window must be at least 1")

    @property
    def name(self) -> str:
        """Display name including the lookahead window."""
        return f"lookahead-{self.window}"

    def run(self, instance: ProblemInstance) -> AllocationSchedule:
        """Roll the horizon across every slot of the instance."""
        result = run_on_spine(self, instance)
        assert result.schedule is not None
        return result.schedule

    def as_instance_controller(self, instance: ProblemInstance) -> PerSlotController:
        """The *privileged* controller form: needs the next ``window`` slots.

        A perfect predictor is not causal, so this baseline has no
        ``as_controller`` — it keeps the full instance and peeks at the
        window starting at each observed slot, exactly as the batch loop
        did.
        """
        return PerSlotController(
            system=SystemDescription.from_instance(instance),
            solve=lambda observation, x_prev: self.solve_window(
                instance, observation.slot, x_prev
            )[0],
            name=f"{self.name} (streaming)",
        )

    def solve_window(
        self, instance: ProblemInstance, start: int, x_prev: np.ndarray
    ) -> np.ndarray:
        """Optimal allocations for slots [start, start+window) given x_prev.

        Returns the (W, I, J) window plan; callers commit plan[0]. The
        window is clipped at the end of the horizon.
        """
        stop = min(start + self.window, instance.num_slots)
        builder = windowed_p0_lp(instance, start, stop - start, x_prev)
        result = builder.solve()
        x_block = builder.block("x")
        return result.x[x_block.indices()].reshape(x_block.shape)
