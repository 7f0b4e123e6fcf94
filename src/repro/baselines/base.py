"""Shared interface for every allocation algorithm (paper Section V-B).

The evaluation compares two groups:

* **atomistic** — per-slot optimizers of part of the static cost
  (perf-opt, oper-opt, stat-opt);
* **holistic** — offline-opt (full horizon, impractical baseline) and
  online-greedy (per-slot P0 objective), plus the paper's online-approx
  (:class:`repro.core.regularization.OnlineRegularizedAllocator`).

Every algorithm consumes a :class:`ProblemInstance` and produces an
:class:`AllocationSchedule`; all cost accounting happens downstream in
:mod:`repro.core.costs`, so every algorithm is scored by exactly the same
P0 objective. Execution itself is unified on the streaming spine
(:mod:`repro.simulation.spine`): each algorithm exposes a controller form
(``as_controller`` / ``as_instance_controller``) and the batch ``run()``
protocol survives as a thin adapter that drives that controller over the
instance's observation stream.

offline-opt, online-greedy and the lookahead baseline all solve the same
linearized P0, over the whole horizon, one slot or a window; it is built
once, by :func:`windowed_p0_lp`.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

from ..core.allocation import AllocationSchedule
from ..core.problem import ProblemInstance
from ..solvers.linear import LinearProgramBuilder


@runtime_checkable
class AllocationAlgorithm(Protocol):
    """Anything that maps a problem instance to a full allocation schedule."""

    name: str

    def run(self, instance: ProblemInstance) -> AllocationSchedule:
        """Produce an allocation for every slot of the instance."""
        ...


def weighted_static_prices(instance: ProblemInstance, slot: int) -> np.ndarray:
    """Static-weight-scaled per-unit prices p_ij for one slot, shape (I, J)."""
    return instance.weights.static * instance.static_prices(slot)


def windowed_p0_lp(
    instance: ProblemInstance, start: int, horizon: int, x_prev: np.ndarray
) -> LinearProgramBuilder:
    """The linearized P0 over slots [start, start + horizon), from ``x_prev``.

    The (.)+ terms are rewritten with auxiliary variables: ``u`` for the
    per-cloud workload increase (reconfiguration) and ``m_in``/``m_out``
    for per-user migration volumes. All prices are nonnegative, so the
    auxiliaries equal the positive parts at any optimum and the LP optimum
    equals P0's. ``x_prev`` is the allocation before the window (zeros for
    a window starting at slot 0); it is data, so it sits on the right-hand
    side of the first slot's transition rows.

    Returns the unsolved LP; the (horizon, I, J) plan is block ``"x"``. Its
    objective excludes the allocation-independent access-delay constant.
    """
    num_clouds, num_users = instance.num_clouds, instance.num_users
    w_dyn = instance.weights.dynamic
    x_prev = np.asarray(x_prev, dtype=float)

    builder = LinearProgramBuilder()
    x_idx = builder.add_block("x", horizon, num_clouds, num_users).indices()
    u_idx = builder.add_block("u", horizon, num_clouds).indices()
    m_in_idx = builder.add_block("m_in", horizon, num_clouds, num_users).indices()
    m_out_idx = builder.add_block("m_out", horizon, num_clouds, num_users).indices()

    shape = (num_clouds, num_users)
    reconfig = w_dyn * np.asarray(instance.reconfig_prices, dtype=float)
    b_in = np.asarray(instance.migration_prices.into, dtype=float)
    b_out = np.asarray(instance.migration_prices.out, dtype=float)
    migrate_in = w_dyn * np.broadcast_to(b_in[:, None], shape)
    migrate_out = w_dyn * np.broadcast_to(b_out[:, None], shape)
    workloads = np.asarray(instance.workloads, dtype=float)
    capacities = np.asarray(instance.capacities, dtype=float)
    zeros_i = np.zeros(num_clouds)
    zeros_n = np.zeros(num_clouds * num_users)

    for w in range(horizon):
        x_w, u_w = x_idx[w], u_idx[w]
        m_in_w, m_out_w = m_in_idx[w].ravel(), m_out_idx[w].ravel()
        builder.set_cost(x_w, weighted_static_prices(instance, start + w))
        builder.set_cost(u_w, reconfig)
        builder.set_cost(m_in_w, migrate_in)
        builder.set_cost(m_out_w, migrate_out)
        # Demand: sum_i x_ij >= lambda_j. Capacity: sum_j x_ij <= C_i.
        builder.add_ge_rows(x_w.T, 1.0, workloads)
        builder.add_le_rows(x_w, 1.0, capacities)
        # Reconfiguration u_i >= sum_j (x_ij - x_prev_ij); migration
        # m_in >= x - x_prev and m_out >= x_prev - x.
        if w == 0:
            builder.add_le_rows(
                np.column_stack([x_w, u_w]),
                np.r_[np.ones(num_users), -1.0],
                x_prev.sum(axis=1),
            )
            builder.add_le_rows(
                np.column_stack([x_w.ravel(), m_in_w]), [1.0, -1.0], x_prev.ravel()
            )
            builder.add_le_rows(
                np.column_stack([x_w.ravel(), m_out_w]), [-1.0, -1.0], -x_prev.ravel()
            )
        else:
            x_before = x_idx[w - 1]
            builder.add_le_rows(
                np.column_stack([x_w, x_before, u_w]),
                np.r_[np.ones(num_users), -np.ones(num_users), -1.0],
                zeros_i,
            )
            builder.add_le_rows(
                np.column_stack([x_w.ravel(), x_before.ravel(), m_in_w]),
                [1.0, -1.0, -1.0],
                zeros_n,
            )
            builder.add_le_rows(
                np.column_stack([x_before.ravel(), x_w.ravel(), m_out_w]),
                [1.0, -1.0, -1.0],
                zeros_n,
            )
    return builder
