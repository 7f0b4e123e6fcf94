"""The competitive analysis as executable code (paper Section IV).

The proof of Theorem 2 rests on the chain of inequalities (eq. 12):

    P1  >=  P3  >=  D,

where P3 linearizes P1's (.)+ terms with auxiliary variables ``u, v >= 0``
(exact at any optimum, since their prices are nonnegative) and *relaxes*
the capacity constraint to the complement form (13c) with the positive
part on the right-hand side — every P1-feasible point is P3-feasible with
equal objective, hence P3* <= P1(x) for any feasible x. D is the Lagrange
dual (14) of P3 with variables alpha (14b: <= c_i), beta (14c: <= b_i),
rho and theta; the box constraints (14b)/(14c) come precisely from
``u, v >= 0``.

This module builds and solves both programs with HiGHS, so for any
instance the chain can be *numerically certified* rather than trusted:

    certificate = duality_certificate(instance, schedule)
    assert certificate.chain_holds

All objective values exclude the allocation-independent access-delay
constant (it cancels throughout the analysis); prices carry the instance's
static/dynamic weights exactly as in the rest of the project.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..solvers.linear import LinearProgramBuilder
from .allocation import AllocationSchedule
from .costs import (
    operation_cost,
    reconfiguration_cost,
    service_quality_cost,
)
from .problem import ProblemInstance
from .subproblem import RegularizedSubproblem
from .transformation import combined_migration_prices, p1_migration_cost


def p1_value(schedule: AllocationSchedule, instance: ProblemInstance) -> float:
    """P1 objective of a schedule, without the access-delay constant."""
    weights = instance.weights
    static = (
        operation_cost(schedule, instance).sum()
        + service_quality_cost(schedule, instance).sum()
        - instance.access_delay_constant()
    )
    dynamic = (
        reconfiguration_cost(schedule, instance).sum()
        + p1_migration_cost(schedule, instance).sum()
    )
    return float(weights.static * static + weights.dynamic * dynamic)


def solve_p3(instance: ProblemInstance) -> tuple[AllocationSchedule, float]:
    """Solve the relaxed program P3 (eq. 13); returns (x part, optimum).

    The linearization (u, v with nonnegative prices) is exact; the
    relaxation is the complement-form capacity (13c), which every
    P1-feasible point satisfies. Hence ``P3* <= P1(x)`` for any feasible x.
    """
    num_slots = instance.num_slots
    num_clouds = instance.num_clouds
    num_users = instance.num_users
    w_dyn = instance.weights.dynamic
    workloads = np.asarray(instance.workloads, dtype=float)
    capacities = np.asarray(instance.capacities, dtype=float)
    total_workload = float(workloads.sum())
    reconfig = np.asarray(instance.reconfig_prices, dtype=float)
    combined = combined_migration_prices(instance)

    builder = LinearProgramBuilder()
    x = builder.add_block("x", num_slots, num_clouds, num_users)
    u = builder.add_block("u", num_slots, num_clouds)
    v = builder.add_block("v", num_slots, num_clouds, num_users)
    x_idx, u_idx, v_idx = x.indices(), u.indices(), v.indices()
    # u, v >= 0 (13d): the builder's default nonnegativity.

    ones_block = np.ones((num_clouds, num_users))
    for t in range(num_slots):
        builder.set_cost(x_idx[t], instance.weights.static * instance.static_prices(t))
        builder.set_cost(u_idx[t], w_dyn * reconfig)
        builder.set_cost(
            v_idx[t],
            w_dyn * np.broadcast_to(combined[:, None], (num_clouds, num_users)),
        )
        # (6a) demand.
        builder.add_ge_rows(x_idx[t].T, 1.0, workloads)
        # (13c) complement capacity with the positive part on the rhs.
        rhs = np.maximum(total_workload - capacities, 0.0)
        columns = np.empty((num_clouds, (num_clouds - 1) * num_users), dtype=int)
        for i in range(num_clouds):
            others = np.concatenate(
                [x_idx[t, k, :] for k in range(num_clouds) if k != i]
            )
            columns[i] = others
        builder.add_ge_rows(columns, 1.0, rhs)
        # (13a) u_{i,t} >= sum_j x_{i,j,t} - sum_j x_{i,j,t-1}.
        if t == 0:
            builder.add_le_rows(
                np.concatenate([x_idx[t], u_idx[t][:, None]], axis=1),
                np.concatenate([ones_block, -np.ones((num_clouds, 1))], axis=1),
                np.zeros(num_clouds),
            )
            builder.add_le_rows(
                np.stack([x_idx[t].ravel(), v_idx[t].ravel()], axis=1),
                np.array([1.0, -1.0]),
                np.zeros(num_clouds * num_users),
            )
        else:
            builder.add_le_rows(
                np.concatenate([x_idx[t], x_idx[t - 1], u_idx[t][:, None]], axis=1),
                np.concatenate(
                    [ones_block, -ones_block, -np.ones((num_clouds, 1))], axis=1
                ),
                np.zeros(num_clouds),
            )
            # (13b) v_{i,j,t} >= x_{i,j,t} - x_{i,j,t-1}.
            builder.add_le_rows(
                np.stack(
                    [x_idx[t].ravel(), x_idx[t - 1].ravel(), v_idx[t].ravel()], axis=1
                ),
                np.array([1.0, -1.0, -1.0]),
                np.zeros(num_clouds * num_users),
            )
    result = builder.solve()
    x_opt = result.x[x_idx].reshape(num_slots, num_clouds, num_users)
    return AllocationSchedule(x_opt), float(result.objective)


def solve_dual(instance: ProblemInstance) -> float:
    """Solve the dual program D (eq. 14); returns its optimum.

    By weak duality, ``D* <= P3*``; with LP strong duality the two are
    equal (a useful numerical cross-check of both constructions).
    """
    num_slots = instance.num_slots
    num_clouds = instance.num_clouds
    num_users = instance.num_users
    workloads = np.asarray(instance.workloads, dtype=float)
    capacities = np.asarray(instance.capacities, dtype=float)
    total_workload = float(workloads.sum())
    w_dyn = instance.weights.dynamic
    reconfig = w_dyn * np.asarray(instance.reconfig_prices, dtype=float)
    combined = w_dyn * combined_migration_prices(instance)

    builder = LinearProgramBuilder()
    alpha = builder.add_block("alpha", num_slots, num_clouds)
    beta = builder.add_block("beta", num_slots, num_clouds, num_users)
    rho = builder.add_block("rho", num_slots, num_clouds)
    theta = builder.add_block("theta", num_slots, num_users)
    a_idx, b_idx = alpha.indices(), beta.indices()
    r_idx, t_idx = rho.indices(), theta.indices()

    # Maximize  sum lambda_j theta + sum (Lambda - C_i)+ rho  ==  minimize -(...).
    surplus = np.maximum(total_workload - capacities, 0.0)
    for t in range(num_slots):
        builder.set_cost(t_idx[t], -workloads)
        builder.set_cost(r_idx[t], -surplus)
    # (14b), (14c): box constraints.
    builder.set_upper_bound(a_idx, np.broadcast_to(reconfig, (num_slots, num_clouds)))
    builder.set_upper_bound(
        b_idx,
        np.broadcast_to(combined[None, :, None], (num_slots, num_clouds, num_users)),
    )

    # (14a), one row per (t, i, j):
    #   -p_{i,j,t} + alpha_{t+1} - alpha_t + beta_{t+1} - beta_t
    #   + sum_{k != i} rho_{k,t} + theta_{j,t} <= 0,
    # with alpha_{T+1} = beta_{T+1} = 0 (no variables beyond the horizon).
    for t in range(num_slots):
        prices = instance.weights.static * instance.static_prices(t)  # (I, J)
        has_next = t + 1 < num_slots
        width = (2 if has_next else 1) * 2 + (num_clouds - 1) + 1
        columns = np.empty((num_clouds * num_users, width), dtype=int)
        coefficients = np.empty((num_clouds * num_users, width))
        row = 0
        for i in range(num_clouds):
            other_rho = np.array(
                [r_idx[t, k] for k in range(num_clouds) if k != i], dtype=int
            )
            for j in range(num_users):
                entries = [(a_idx[t, i], -1.0), (b_idx[t, i, j], -1.0)]
                if has_next:
                    entries += [
                        (a_idx[t + 1, i], 1.0),
                        (b_idx[t + 1, i, j], 1.0),
                    ]
                entries += [(int(k), 1.0) for k in other_rho]
                entries += [(t_idx[t, j], 1.0)]
                columns[row] = [e[0] for e in entries]
                coefficients[row] = [e[1] for e in entries]
                row += 1
        builder.add_le_rows(columns, coefficients, prices.ravel())
    result = builder.solve()
    return float(-result.objective)


@dataclass(frozen=True)
class DualityCertificate:
    """Numerical certificate of the paper's inequality chain (eq. 12)."""

    p1: float
    p3: float
    dual: float
    tolerance: float

    @property
    def chain_holds(self) -> bool:
        """P1 >= P3 >= D up to the (relative) tolerance."""
        scale = max(1.0, abs(self.p1), abs(self.p3), abs(self.dual))
        slack = self.tolerance * scale
        return self.p1 >= self.p3 - slack and self.p3 >= self.dual - slack

    @property
    def lp_duality_gap(self) -> float:
        """P3* - D*: zero (strong duality) up to solver tolerance."""
        return self.p3 - self.dual


def duality_certificate(
    instance: ProblemInstance,
    schedule: AllocationSchedule,
    *,
    tolerance: float = 1e-6,
) -> DualityCertificate:
    """Certify P1(schedule) >= P3* >= D* on a concrete instance."""
    _, p3_opt = solve_p3(instance)
    dual_opt = solve_dual(instance)
    return DualityCertificate(
        p1=p1_value(schedule, instance),
        p3=p3_opt,
        dual=dual_opt,
        tolerance=tolerance,
    )


# ----- Lemma 2: the constructed dual solution S_D ----------------------------


def recover_multipliers(
    subproblem: RegularizedSubproblem,
    flat: np.ndarray,
    *,
    support_tol: float = 1e-6,
    binding_tol: float = 1e-5,
) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares KKT multipliers (theta, rho) for one solved subproblem.

    Evaluates the gradient at ``flat`` and fits the stationarity system
    ``grad_ij = theta_j - rho_i`` by least squares over the support
    ``x_ij > support_tol``, pinning ``rho_i = 0`` at clouds whose capacity
    is slack. Unlike solver multipliers it needs only the primal point.
    Results are clipped to the dual cone (``>= 0``).
    """
    num_clouds, num_users = subproblem.num_clouds, subproblem.num_users
    x = np.asarray(flat, dtype=float).reshape(num_clouds, num_users)
    grad = subproblem.gradient(flat).reshape(num_clouds, num_users)
    capacities = np.asarray(subproblem.capacities, dtype=float)
    binding = capacities - x.sum(axis=1) <= binding_tol
    rows, rhs = [], []
    for i, j in zip(*np.nonzero(x > support_tol)):
        row = np.zeros(num_users + num_clouds)
        row[j] = 1.0
        if binding[i]:
            row[num_users + i] = -1.0
        rows.append(row)
        rhs.append(grad[i, j])
    theta = np.zeros(num_users)
    rho = np.zeros(num_clouds)
    if rows:
        solution, *_ = np.linalg.lstsq(np.array(rows), np.array(rhs), rcond=None)
        theta = np.maximum(solution[:num_users], 0.0)
        rho = np.maximum(np.where(binding, solution[num_users:], 0.0), 0.0)
    return theta, rho


def recover_slot_duals(
    instance: ProblemInstance,
    schedule: AllocationSchedule,
    *,
    eps1: float,
    eps2: float,
    support_tol: float = 1e-6,
    binding_tol: float = 1e-5,
) -> tuple[np.ndarray, np.ndarray]:
    """Recover per-slot KKT multipliers (theta, rho) from the primal.

    For each slot, rebuilds the P2 subproblem at the trajectory's previous
    allocation and fits :func:`recover_multipliers` at the trajectory's
    decision.

    Returns:
        (theta, rho) with shapes (T, J) and (T, I), clipped to >= 0.
    """
    x, x_prev = schedule.with_previous()
    num_slots, num_clouds, num_users = x.shape
    theta = np.zeros((num_slots, num_users))
    rho = np.zeros((num_slots, num_clouds))
    for t in range(num_slots):
        sub = RegularizedSubproblem.from_instance(
            instance, t, x_prev[t], eps1=eps1, eps2=eps2
        )
        theta[t], rho[t] = recover_multipliers(
            sub, x[t].ravel(), support_tol=support_tol, binding_tol=binding_tol
        )
    return theta, rho


@dataclass(frozen=True)
class ConstructedDual:
    """The paper's S_D mapping evaluated on an online run (Lemma 2).

    Attributes:
        alpha: (T, I) — (c_i/eta_i) ln((C_i+eps1)/(x*_{i,t-1}+eps1)).
        beta: (T, I, J) — (b_i/tau_j) ln((C_i+eps2)/(x*_{i,j,t-1}+eps2)).
        theta: (T, J) demand multipliers from the per-slot P2 solves.
        rho: (T, I) capacity multipliers from the per-slot P2 solves.
        objective: the D objective value of this (feasible) solution.
        max_violation: worst violation across the D constraints (14a-14c);
            ~0 confirms Lemma 2 numerically.
    """

    alpha: np.ndarray
    beta: np.ndarray
    theta: np.ndarray
    rho: np.ndarray
    objective: float
    max_violation: float


def construct_dual_solution(
    instance: ProblemInstance,
    schedule: AllocationSchedule,
    theta: np.ndarray,
    rho: np.ndarray,
    *,
    eps1: float,
    eps2: float,
) -> ConstructedDual:
    """Build S_D from an online trajectory and its per-slot duals (Lemma 2).

    Args:
        instance: the problem instance.
        schedule: the online algorithm's trajectory x*.
        theta: (T, J) per-slot demand multipliers of the P2 solves.
        rho: (T, I) per-slot capacity multipliers of the P2 solves. Note:
            our P2 uses the direct capacity form, whose multiplier enters
            stationarity as +rho_i; the paper's complement-form multiplier
            enters as +sum_{k != i} rho'_k. The two coincide when capacity
            is slack (rho = 0), which is where this construction is exact;
            binding capacity introduces an O(rho) discrepancy that shows up
            in ``max_violation``.
        eps1, eps2: the regularization parameters of the run.

    Returns:
        The constructed solution with its D objective and worst violation.
    """
    from .bounds import eta as eta_fn
    from .bounds import tau as tau_fn

    weights = instance.weights
    capacities = np.asarray(instance.capacities, dtype=float)
    workloads = np.asarray(instance.workloads, dtype=float)
    total_workload = float(workloads.sum())
    creg = weights.dynamic * np.asarray(instance.reconfig_prices, dtype=float)
    bmig = weights.dynamic * combined_migration_prices(instance)
    eta = eta_fn(capacities, eps1)
    tau = tau_fn(workloads, eps2)

    x, x_prev = schedule.with_previous()
    prev_cloud_totals = x_prev.sum(axis=2)  # (T, I)
    num_slots, num_clouds, num_users = x.shape

    alpha = (creg / eta)[None, :] * np.log(
        (capacities[None, :] + eps1) / (prev_cloud_totals + eps1)
    )
    # The paper prints beta's numerator as (C_i + eps2), but its own proof
    # of (14c) ("analogously ... beta <= b_i") only goes through when the
    # numerator matches tau's argument: with tau_j = ln(1 + lambda_j/eps2)
    # the bound requires (lambda_j + eps2). Since x*_{i,j,t} <= lambda_j at
    # any P2 optimum, the (14a) telescoping is unaffected (the numerator
    # cancels in beta_{t+1} - beta_t) and (14c) holds. We implement the
    # coherent version.
    beta = (bmig[None, :, None] / tau[None, None, :]) * np.log(
        (workloads[None, None, :] + eps2) / (x_prev + eps2)
    )
    theta = np.asarray(theta, dtype=float)
    rho = np.asarray(rho, dtype=float)

    # D objective (eq. 14): sum lambda theta + sum (Lambda - C)+ rho.
    surplus = np.maximum(total_workload - capacities, 0.0)
    objective = float((theta @ workloads).sum() + (rho @ surplus).sum())

    # Constraint violations. (14b): alpha <= c; (14c): beta <= b.
    violation = max(
        float((alpha - creg[None, :]).max(initial=0.0)),
        float((beta - bmig[None, :, None]).max(initial=0.0)),
        float((-alpha).max(initial=0.0)),
        float((-beta).max(initial=0.0)),
        float((-theta).max(initial=0.0)),
        float((-rho).max(initial=0.0)),
    )
    # (14a): -p + (alpha_{t+1} - alpha_t) + (beta_{t+1} - beta_t)
    #        + sum_{k != i} rho_k + theta_j <= 0, with alpha/beta_{T+1} = 0.
    alpha_next = np.zeros_like(alpha)
    alpha_next[:-1] = alpha[1:]
    beta_next = np.zeros_like(beta)
    beta_next[:-1] = beta[1:]
    rho_sum_except = rho.sum(axis=1, keepdims=True) - rho  # (T, I)
    for t in range(num_slots):
        prices = weights.static * instance.static_prices(t)  # (I, J)
        lhs = (
            -prices
            + (alpha_next[t] - alpha[t])[:, None]
            + (beta_next[t] - beta[t])
            + rho_sum_except[t][:, None]
            + theta[t][None, :]
        )
        violation = max(violation, float(lhs.max(initial=0.0)))
    return ConstructedDual(
        alpha=alpha,
        beta=beta,
        theta=theta,
        rho=rho,
        objective=objective,
        max_violation=violation,
    )
