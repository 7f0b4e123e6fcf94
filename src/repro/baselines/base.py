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
linearized P0, over the whole horizon, one slot or a window. One helper
declares its plan, reconfiguration, demand and capacity parts; online-greedy
and the lookahead baseline take it with split in/out migration blocks
(:func:`windowed_p0_lp`), offline-opt with Lemma 1's folded block.
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

    Online-greedy (one slot) and :class:`RecedingHorizon` commit the
    vertex this LP returns and carry it into the next slot, so they keep
    the split ``m_in``/``m_out`` form. Lemma 1's fold has the same optimum
    but HiGHS may return another optimal vertex on a degenerate slot, and
    that vertex would then steer every later slot; only offline-opt, which
    reports the optimum, builds the folded LP
    (:meth:`repro.baselines.offline.OfflineOptimal.build_lp`).

    Returns the unsolved LP; the (horizon, I, J) plan is block ``"x"``. Its
    objective excludes the allocation-independent access-delay constant.
    """
    prices = instance.migration_prices
    return _linearized_p0(
        instance,
        start,
        horizon,
        x_prev,
        (("m_in", prices.into, 1.0), ("m_out", prices.out, -1.0)),
    )


def _linearized_p0(
    instance: ProblemInstance,
    start: int,
    horizon: int,
    x_prev: np.ndarray,
    migration: tuple[tuple[str, np.ndarray, float], ...],
) -> LinearProgramBuilder:
    """The linearized P0 with the given migration blocks.

    Declares the plan ``x`` and the reconfiguration ``u``, and per slot sets
    their costs and adds the demand, capacity and reconfiguration rows.
    Each ``(name, price, sign)`` of ``migration`` then declares a block
    ``m`` of per-(slot, cloud, user) volumes costing ``w_d * price[i]`` and
    adds, per slot after the reconfiguration rows, the rows
    ``sign * (x_t - x_{t-1}) <= m_t`` with ``x_{start-1} = x_prev``.
    """
    num_clouds, num_users = instance.num_clouds, instance.num_users
    w_dyn = instance.weights.dynamic
    x_prev = np.asarray(x_prev, dtype=float)

    builder = LinearProgramBuilder()
    x_idx = builder.add_block("x", horizon, num_clouds, num_users).indices()
    u_idx = builder.add_block("u", horizon, num_clouds).indices()
    m_idx = [
        builder.add_block(name, horizon, num_clouds, num_users).indices()
        for name, _, _ in migration
    ]

    shape = (num_clouds, num_users)
    reconfig = w_dyn * np.asarray(instance.reconfig_prices, dtype=float)
    migrate = [
        w_dyn * np.broadcast_to(np.asarray(price, dtype=float)[:, None], shape)
        for _, price, _ in migration
    ]
    workloads = np.asarray(instance.workloads, dtype=float)
    capacities = np.asarray(instance.capacities, dtype=float)
    zeros_i = np.zeros(num_clouds)
    zeros_n = np.zeros(num_clouds * num_users)

    for w in range(horizon):
        x_w, u_w = x_idx[w], u_idx[w]
        builder.set_cost(x_w, weighted_static_prices(instance, start + w))
        builder.set_cost(u_w, reconfig)
        for m, cost in zip(m_idx, migrate):
            builder.set_cost(m[w], cost)
        # Demand: sum_i x_ij >= lambda_j. Capacity: sum_j x_ij <= C_i.
        builder.add_ge_rows(x_w.T, 1.0, workloads)
        builder.add_le_rows(x_w, 1.0, capacities)
        # Reconfiguration u_i >= sum_j (x_ij - x_prev_ij); migration
        # m >= sign * (x - x_prev).
        if w == 0:
            builder.add_le_rows(
                np.column_stack([x_w, u_w]),
                np.r_[np.ones(num_users), -1.0],
                x_prev.sum(axis=1),
            )
            for m, (_, _, sign) in zip(m_idx, migration):
                builder.add_le_rows(
                    np.column_stack([x_w.ravel(), m[w].ravel()]),
                    [sign, -1.0],
                    sign * x_prev.ravel(),
                )
        else:
            x_before = x_idx[w - 1]
            builder.add_le_rows(
                np.column_stack([x_w, x_before, u_w]),
                np.r_[np.ones(num_users), -np.ones(num_users), -1.0],
                zeros_i,
            )
            for m, (_, _, sign) in zip(m_idx, migration):
                builder.add_le_rows(
                    np.column_stack([x_w.ravel(), x_before.ravel(), m[w].ravel()]),
                    [sign, -sign, -1.0],
                    zeros_n,
                )
    return builder
