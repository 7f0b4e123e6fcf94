"""Property-based cross-validation of the P2 solver backends.

Hypothesis generates small random subproblems (shapes, prices, epsilons,
previous allocations). The structured IPM must never do worse than SciPy
trust-constr, and its point must be feasible and certified optimal — by
its own multipliers and by the exact duals of the linearized subproblem,
a reference that does not depend on trust-constr's convergence.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.subproblem import RegularizedSubproblem
from repro.diagnostics.certificates import duality_gap_bound, lp_multipliers
from repro.solvers.interior_point import InteriorPointBackend
from tests.solvers.trust_constr import TrustConstrOracle, max_violation


def random_subproblem(
    seed: int, num_clouds: int, num_users: int, eps1: float, eps2: float
) -> RegularizedSubproblem:
    rng = np.random.default_rng(seed)
    workloads = rng.integers(1, 6, size=num_users).astype(float)
    capacities = workloads.sum() * (0.3 + rng.dirichlet(np.ones(num_clouds))) * 1.3
    # Normalize so sum(capacities) = 1.3 * total workload exactly.
    capacities *= 1.3 * workloads.sum() / capacities.sum()
    x_prev = rng.uniform(0.0, 1.0, size=(num_clouds, num_users))
    x_prev *= workloads[None, :] / num_clouds
    return RegularizedSubproblem(
        static_prices=rng.uniform(0.05, 2.0, size=(num_clouds, num_users)),
        reconfig_prices=rng.uniform(0.1, 2.0, size=num_clouds),
        migration_prices=rng.uniform(0.1, 2.0, size=num_clouds),
        capacities=capacities,
        workloads=workloads,
        x_prev=x_prev,
        eps1=eps1,
        eps2=eps2,
    )


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    num_clouds=st.integers(min_value=2, max_value=4),
    num_users=st.integers(min_value=2, max_value=5),
    eps=st.sampled_from([0.05, 0.5, 2.0, 20.0]),
)
@settings(max_examples=15, deadline=None)
# trust-constr stops 6% above the optimum here (5.355 vs 5.043).
@example(seed=615, num_clouds=2, num_users=2, eps=0.05)
def test_backends_agree_on_random_subproblems(seed, num_clouds, num_users, eps):
    sub = random_subproblem(seed, num_clouds, num_users, eps, eps)
    program = sub.build_program()
    ipm = InteriorPointBackend().solve(program, tol=1e-9)
    scipy_result = TrustConstrOracle().solve(program, tol=1e-9)
    scale = max(1.0, abs(scipy_result.objective))
    # The IPM never does worse than trust-constr (tight one-sided check) …
    assert ipm.objective <= scipy_result.objective + 1e-5 * scale
    # … and its point is feasible and optimal by the linearized-LP duals,
    # whose bound is the Frank-Wolfe gap of the returned point.
    assert max_violation(sub, ipm.x) <= 1e-9
    theta, rho = lp_multipliers(sub, ipm.x)
    gap = duality_gap_bound(sub, ipm.x, theta, rho)
    assert gap <= 1e-6 * max(1.0, abs(ipm.objective))


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    num_clouds=st.integers(min_value=2, max_value=4),
    num_users=st.integers(min_value=2, max_value=5),
    eps=st.sampled_from([0.05, 0.5, 2.0, 20.0]),
    tol=st.sampled_from([1e-8, 1e-9, 1e-10]),
)
@settings(max_examples=25, deadline=None)
def test_solver_duals_certify_every_solve(seed, num_clouds, num_users, eps, tol):
    """The IPM's own multipliers certify its point: the stop rule's bound."""
    sub = random_subproblem(seed, num_clouds, num_users, eps, eps)
    result = InteriorPointBackend().solve(sub.build_program(), tol=tol)
    assert not result.partial
    gap = duality_gap_bound(
        sub, result.x, result.duals["demand"], result.duals["capacity"]
    )
    assert gap <= 1e-6 * max(1.0, abs(result.objective))


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    num_clouds=st.integers(min_value=2, max_value=4),
    num_users=st.integers(min_value=2, max_value=5),
)
@settings(max_examples=20, deadline=None)
def test_ipm_solution_feasible_and_stationary(seed, num_clouds, num_users):
    sub = random_subproblem(seed, num_clouds, num_users, 1.0, 1.0)
    program = sub.build_program()
    result = InteriorPointBackend().solve(program, tol=1e-9)
    # Feasibility.
    assert max_violation(sub, result.x) <= 1e-7
    # First-order optimality: x is a KKT point iff *some* valid duals
    # exist. Fit (theta, rho) by least squares on the support (rho pinned
    # to 0 where capacity is slack), then check the stationarity residual.
    grad = sub.gradient(result.x).reshape(num_clouds, num_users)
    x = result.x.reshape(num_clouds, num_users)
    capacity_slack = np.asarray(sub.capacities) - x.sum(axis=1)
    binding = capacity_slack <= 1e-5
    rows, cols, rhs = [], [], []
    for (i, j) in zip(*np.nonzero(x > 1e-6)):
        # grad_ij - theta_j + rho_i = 0 on the support.
        row = np.zeros(num_users + num_clouds)
        row[j] = -1.0
        if binding[i]:
            row[num_users + i] = 1.0
        rows.append(row)
        rhs.append(-grad[i, j])
    solution, *_ = np.linalg.lstsq(np.array(rows), np.array(rhs), rcond=None)
    theta = solution[:num_users]
    rho = np.where(binding, solution[num_users:], 0.0)
    residual = sub.kkt_stationarity_residual(result.x, theta, np.maximum(rho, 0.0))
    assert residual < 5e-3


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    eps=st.sampled_from([0.1, 1.0, 10.0]),
)
@settings(max_examples=15, deadline=None)
def test_objective_convex_along_random_segments(seed, eps):
    """Midpoint convexity of the P2 objective on the positive orthant."""
    sub = random_subproblem(seed, 3, 3, eps, eps)
    rng = np.random.default_rng(seed + 1)
    a = rng.uniform(0.01, 3.0, size=9)
    b = rng.uniform(0.01, 3.0, size=9)
    mid = 0.5 * (a + b)
    assert sub.objective(mid) <= 0.5 * sub.objective(a) + 0.5 * sub.objective(b) + 1e-9


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=15, deadline=None)
def test_gradient_is_derivative_of_objective(seed):
    """Directional finite difference matches the analytic gradient."""
    sub = random_subproblem(seed, 3, 4, 1.0, 1.0)
    rng = np.random.default_rng(seed + 2)
    x = rng.uniform(0.1, 2.0, size=12)
    direction = rng.standard_normal(12)
    direction /= np.linalg.norm(direction)
    h = 1e-6
    numeric = (sub.objective(x + h * direction) - sub.objective(x - h * direction)) / (
        2 * h
    )
    analytic = float(sub.gradient(x) @ direction)
    assert numeric == pytest.approx(analytic, rel=1e-4, abs=1e-7)
