"""offline-opt: the full-horizon optimum of P0 (paper Section V-B).

    "The offline-opt algorithm minimizes P0 assuming a global view over all
    the time slots in advance. This is considered impractical and only
    serves as a baseline."

P0 is linear once the (.)+ terms are rewritten with auxiliary variables
(:func:`repro.baselines.base.windowed_p0_lp`); offline-opt solves that LP
once over the whole horizon from the zero allocation, with the in/out
migration blocks folded into one as in Lemma 1, so the LP optimum is the
P0 optimum. Every algorithm in the paper is normalized by this value
(the "empirical competitive ratio").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.allocation import AllocationSchedule
from ..core.problem import ProblemInstance
from ..simulation.spine import ScheduleController, run_on_spine
from ..solvers.linear import LinearProgramBuilder
from .base import _linearized_p0


@dataclass(frozen=True)
class OfflineOptimal:
    """Solve P0 exactly over the whole horizon with one big LP."""

    name: str = "offline-opt"

    def run(self, instance: ProblemInstance) -> AllocationSchedule:
        """Solve the full-horizon LP and replay it through the spine."""
        result = run_on_spine(self, instance)
        assert result.schedule is not None
        return result.schedule

    def as_instance_controller(self, instance: ProblemInstance) -> ScheduleController:
        """The *privileged* controller form: plan offline, replay per slot.

        offline-opt is by definition non-causal, so it has no
        ``as_controller``; the full-horizon LP is solved once and its plan
        emitted slot by slot (which unifies execution and accounting, not
        causality).
        """
        builder = self.build_lp(instance)
        result = builder.solve()
        x_block = builder.block("x")
        x = result.x[x_block.indices()].reshape(x_block.shape)
        return ScheduleController(plan=x, name=f"{self.name} (streaming)")

    def optimal_cost(self, instance: ProblemInstance) -> float:
        """The P0 optimum including the constant access-delay term."""
        result = self.build_lp(instance).solve()
        return float(result.objective) + (
            instance.weights.static * instance.access_delay_constant()
        )

    @staticmethod
    def build_lp(instance: ProblemInstance) -> LinearProgramBuilder:
        """Lemma 1's folded linearized P0 over all slots, from zero allocation.

        With ``b = b_in + b_out`` one migration block ``m >= x_t - x_{t-1}``
        replaces ``m_in``/``m_out``: at an optimum ``m_out = m - (x_t -
        x_{t-1})``, and summed over the slots the ``b_out`` part of that
        difference telescopes to a ``-w_d * b_out`` cost on the last slot's
        plan (its other end is the zero allocation). The optimum equals
        that of the split-form :func:`repro.baselines.base.windowed_p0_lp`
        over ``[0, T)`` from zeros, with ``2TIJ + TI`` columns instead of
        ``3TIJ + TI`` and ``TIJ`` fewer rows. Where the optimum is
        degenerate the two may return different optimal plans; both cost
        the same.

        The objective excludes the allocation-independent access-delay
        constant (add it back via ``access_delay_constant`` when reporting
        absolute costs).
        """
        shape = (instance.num_clouds, instance.num_users)
        prices = instance.migration_prices
        b_out = np.asarray(prices.out, dtype=float)
        builder = _linearized_p0(
            instance,
            0,
            instance.num_slots,
            np.zeros(shape),
            (("m", prices.combined, 1.0),),
        )
        last_x = builder.block("x").indices()[-1]
        builder.set_cost(
            last_x, -instance.weights.dynamic * np.broadcast_to(b_out[:, None], shape)
        )
        return builder
