"""The atomistic baselines (paper Section V-B).

    "Atomistic algorithms only consider the static part in the total cost":

* **perf-opt** minimizes only the service quality cost Cost_sq per slot;
* **oper-opt** minimizes only the operation cost Cost_op per slot;
* **stat-opt** minimizes the total static cost Cost_op + Cost_sq per slot
  and ignores the dynamic (reconfiguration + migration) costs.

Each slot is an independent transportation-style LP; the dynamic costs
these baselines ignore still show up in their P0 score.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..core.allocation import AllocationSchedule
from ..core.problem import ProblemInstance
from ..simulation.observations import (
    SlotObservation,
    SystemDescription,
    single_slot_instance,
)
from ..simulation.spine import PerSlotController, run_on_spine
from ..solvers.linear import LinearProgramBuilder


def solve_static_slot(
    instance: ProblemInstance, prices: np.ndarray
) -> np.ndarray:
    """Minimize ``sum_ij prices_ij x_ij`` under demand and capacity constraints."""
    num_clouds, num_users = instance.num_clouds, instance.num_users
    builder = LinearProgramBuilder()
    x = builder.add_block("x", num_clouds, num_users)
    x_idx = x.indices()
    builder.set_cost(x_idx, np.asarray(prices, dtype=float))
    builder.add_ge_rows(x_idx.T, 1.0, np.asarray(instance.workloads, dtype=float))
    builder.add_le_rows(x_idx, 1.0, np.asarray(instance.capacities, dtype=float))
    result = builder.solve()
    return result.x[x_idx].reshape(num_clouds, num_users)


@dataclass(frozen=True)
class _StaticPriceBaseline:
    """Per-slot LP over a price matrix derived from the instance."""

    name: str
    price_fn: Callable[[ProblemInstance, int], np.ndarray]

    def run(self, instance: ProblemInstance) -> AllocationSchedule:
        """Solve every slot's static LP in sequence (via the streaming spine)."""
        result = run_on_spine(self, instance)
        assert result.schedule is not None
        return result.schedule

    def as_controller(self, system: SystemDescription) -> PerSlotController:
        """The causal (streaming) form: one static LP per observation."""

        def solve(observation: SlotObservation, _x_prev: np.ndarray) -> np.ndarray:
            instance = single_slot_instance(system, observation)
            return solve_static_slot(instance, self.price_fn(instance, 0))

        return PerSlotController(
            system=system, solve=solve, name=f"{self.name} (streaming)"
        )


def _perf_prices(instance: ProblemInstance, slot: int) -> np.ndarray:
    """Service-quality prices only: d(l_{j,t}, i) / lambda_j."""
    delay = np.asarray(instance.inter_cloud_delay, dtype=float)
    attachment = np.asarray(instance.attachment)[slot]
    workloads = np.asarray(instance.workloads, dtype=float)
    return delay[:, attachment] / workloads[None, :]


def _oper_prices(instance: ProblemInstance, slot: int) -> np.ndarray:
    """Operation prices only: a_{i,t}, identical across users."""
    prices = np.asarray(instance.op_prices, dtype=float)[slot]
    return np.broadcast_to(prices[:, None], (instance.num_clouds, instance.num_users)).copy()


def _stat_prices(instance: ProblemInstance, slot: int) -> np.ndarray:
    """Full static prices: a_{i,t} + d(l_{j,t}, i) / lambda_j."""
    return instance.static_prices(slot)


def PerfOpt() -> _StaticPriceBaseline:
    """perf-opt: minimize only Cost_sq in every slot."""
    return _StaticPriceBaseline(name="perf-opt", price_fn=_perf_prices)


def OperOpt() -> _StaticPriceBaseline:
    """oper-opt: minimize only Cost_op in every slot."""
    return _StaticPriceBaseline(name="oper-opt", price_fn=_oper_prices)


def StatOpt() -> _StaticPriceBaseline:
    """stat-opt: minimize Cost_op + Cost_sq in every slot."""
    return _StaticPriceBaseline(name="stat-opt", price_fn=_stat_prices)
