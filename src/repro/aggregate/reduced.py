"""The cohort-reduced P2, its one-lane solve and its cost error bound.

The reduced subproblem is *not* ``RegularizedSubproblem.from_instance`` on
a shrunken instance — three substitutions make the reduction exact for
workload-uniform cohorts (docs/SCALING.md derives each):

* static prices use the cohort's **mean** workload: the delay coefficient
  of an aggregate unit is ``d(station_g, i) / mean_lambda_g``, which is
  exactly the per-user static cost realized by the proportional split;
* the migration regularizer gets a **per-column eps2 vector**
  ``n_g * eps2``: the sum of ``n`` identical members' entropy terms at an
  equal split collapses to one aggregate entropy term at ``n * eps2``,
  and ``tau(Lambda_g, n_g * eps2) = ln(1 + mean_lambda_g / eps2)`` — the
  members' own tau;
* the reconfiguration term needs no change at all (it depends only on
  per-cloud totals, which aggregation preserves).

A slot solves its reduced P2 jointly, as one program, bit-identical to
the per-user path's one-lane structured-IPM solve (:func:`solve_sharded`).
"""

from __future__ import annotations

import numpy as np

from ..core.subproblem import RegularizedSubproblem
from ..simulation.observations import SlotObservation, SystemDescription
from ..solvers.base import ConvexProgram, SolveBudget, SolverResult
from ..solvers.batched import solve_batch
from .cohorts import CohortMap

#: Floor for the static price scale in the error bound's denominator.
_PRICE_FLOOR = 1e-12


def reduced_subproblem(
    system: SystemDescription,
    observation: SlotObservation,
    cohorts: CohortMap,
    x_prev_cohorts: np.ndarray,
    *,
    eps1: float,
    eps2: float,
) -> RegularizedSubproblem:
    """P2 over cohort columns for one slot.

    Args:
        system: the time-invariant system description.
        observation: the slot's observation (op prices; the attachment is
            already folded into ``cohorts``).
        cohorts: the slot's cohort map.
        x_prev_cohorts: (I, G) aggregate of the previous per-user decision
            under *this slot's* cohorts (membership churn is handled by
            re-aggregating the carried per-user state).
        eps1: reconfiguration regularization parameter.
        eps2: per-user migration regularization parameter; the aggregate
            columns carry ``n_g * eps2``.
    """
    weights = system.weights
    mean_lam = cohorts.mean_workloads
    delay = np.asarray(system.inter_cloud_delay, dtype=float)
    delay_to_station = delay[:, np.asarray(cohorts.stations)]  # (I, G)
    op_prices = np.asarray(observation.op_prices, dtype=float)
    static = weights.static * (
        op_prices[:, None] + delay_to_station / mean_lam[None, :]
    )
    migration = np.asarray(system.migration_prices.out, dtype=float) + np.asarray(
        system.migration_prices.into, dtype=float
    )
    return RegularizedSubproblem(
        static_prices=static,
        reconfig_prices=weights.dynamic
        * np.asarray(system.reconfig_prices, dtype=float),
        migration_prices=weights.dynamic * migration,
        capacities=np.asarray(system.capacities, dtype=float),
        workloads=np.asarray(cohorts.workloads, dtype=float),
        x_prev=np.asarray(x_prev_cohorts, dtype=float),
        eps1=eps1,
        eps2=np.asarray(cohorts.sizes, dtype=float) * eps2,
    )


def solve_sharded(
    subproblem: RegularizedSubproblem,
    *,
    tol: float = 1e-8,
    budget: SolveBudget | None = None,
) -> SolverResult:
    """Solve a slot's reduced P2 as one program under the slot's budget.

    A one-program :func:`~repro.solvers.batched.solve_batch` call, whose
    lane is bit-identical to the per-user path's one-lane
    ``InteriorPointBackend`` solve. The name is kept for profilers that
    wrap this call by name; the program is not split.

    Raises:
        ValueError: when the slot has no strict interior (total capacity
            at most total workload), as the direct path's solve does.
    """
    (outcome,) = solve_batch(
        [ConvexProgram(structure=subproblem, budget=budget)], tol=tol
    )
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def aggregation_error_bound(
    spread: float, system: SystemDescription, *, min_op_price: float
) -> float:
    """epsilon(r): aggregated cost <= direct cost * (1 + epsilon).

    A Lipschitz perturbation argument (docs/SCALING.md, "Error bound"):
    representing a member workload off by a relative factor ``r`` (the
    within-bucket spread) perturbs its static price coefficient by at most
    a factor ``r``, and can shift at most an ``r`` fraction of its volume
    through the dynamic terms, whose per-unit gradients are bounded by the
    raw prices themselves — ``(c_i / eta_i) ln(1 + C_i/eps1) = c_i`` for
    reconfiguration and ``(b_i / tau_j) ln(1 + lambda_j/eps2) = b_i`` for
    migration. Normalizing by the smallest per-unit static price actually
    payable (the cheapest observed operation price) gives

        epsilon = r * (1 + w_d (max c_i + max b_i) / (w_s min a_{i,t})).

    Exact buckets (``spread == 0``) give ``epsilon == 0``: the reduction
    is cost-exact up to solver tolerance.
    """
    if spread < 0:
        raise ValueError("spread must be nonnegative")
    weights = system.weights
    combined = np.asarray(system.migration_prices.out, dtype=float) + np.asarray(
        system.migration_prices.into, dtype=float
    )
    dynamic_scale = weights.dynamic * (
        float(np.max(np.asarray(system.reconfig_prices, dtype=float)))
        + float(np.max(combined))
    )
    static_floor = max(weights.static * float(min_op_price), _PRICE_FLOOR)
    return float(spread) * (1.0 + dynamic_scale / static_floor)
