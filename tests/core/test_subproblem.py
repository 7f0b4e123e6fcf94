"""Tests for the regularized subproblem P2: derivatives, constraints, KKT."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.subproblem import RegularizedSubproblem
from repro.solvers import InteriorPointBackend
from tests.conftest import make_tiny_instance
from tests.solvers.trust_constr import (
    constraint_rows,
    dense_hessian,
    hessian_factors,
)


def make_subproblem(seed=0, slot=1, eps=1.0, x_prev_scale=0.5):
    instance = make_tiny_instance(seed=seed)
    rng = np.random.default_rng(seed + 100)
    shape = (instance.num_clouds, instance.num_users)
    x_prev = x_prev_scale * rng.uniform(0.0, 1.0, size=shape) * np.asarray(
        instance.workloads
    )
    return RegularizedSubproblem.from_instance(
        instance, slot, x_prev, eps1=eps, eps2=eps
    )


def numerical_gradient(f, x, h=1e-6):
    grad = np.zeros_like(x)
    for k in range(x.size):
        up, down = x.copy(), x.copy()
        up[k] += h
        down[k] -= h
        grad[k] = (f(up) - f(down)) / (2 * h)
    return grad


class TestDerivatives:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gradient_matches_finite_differences(self, seed):
        sub = make_subproblem(seed=seed)
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.2, 2.0, size=sub.num_clouds * sub.num_users)
        analytic = sub.gradient(x)
        numeric = numerical_gradient(sub.objective, x)
        assert np.allclose(analytic, numeric, rtol=1e-4, atol=1e-6)

    def test_hessian_matches_finite_differences(self):
        sub = make_subproblem(seed=3)
        rng = np.random.default_rng(3)
        n = sub.num_clouds * sub.num_users
        x = rng.uniform(0.3, 1.5, size=n)
        hess = dense_hessian(sub, x)
        h = 1e-5
        for k in range(0, n, 3):
            up, down = x.copy(), x.copy()
            up[k] += h
            down[k] -= h
            numeric_row = (sub.gradient(up) - sub.gradient(down)) / (2 * h)
            assert np.allclose(hess[k], numeric_row, rtol=1e-3, atol=1e-5)

    def test_hessian_factors_reconstruct_hessian(self):
        # diag(d) + sum_i s_i 1_i 1_i^T with explicit cloud indicators
        # (cloud-major flattening) is the matrix the oracle is handed.
        sub = make_subproblem(seed=4)
        rng = np.random.default_rng(4)
        n = sub.num_clouds * sub.num_users
        x = rng.uniform(0.1, 1.0, size=n)
        diag, cloud_scale = hessian_factors(sub, x)
        dense = np.diag(diag)
        for i in range(sub.num_clouds):
            indicator = (np.arange(n) // sub.num_users == i).astype(float)
            dense += cloud_scale[i] * np.outer(indicator, indicator)
        assert np.array_equal(dense, dense_hessian(sub, x))

    def test_hessian_positive_semidefinite(self):
        sub = make_subproblem(seed=5)
        rng = np.random.default_rng(5)
        x = rng.uniform(0.1, 2.0, size=sub.num_clouds * sub.num_users)
        eigenvalues = np.linalg.eigvalsh(dense_hessian(sub, x))
        assert eigenvalues.min() > 0  # strictly convex with eps > 0

    def test_gradient_at_x_prev_is_static_prices(self):
        # At x = x_prev the entropy log-terms vanish, leaving only prices.
        sub = make_subproblem(seed=6)
        grad = sub.gradient(sub.x_prev.ravel()).reshape(
            sub.num_clouds, sub.num_users
        )
        assert np.allclose(grad, sub.static_prices, atol=1e-10)


class TestConstraints:
    """P2's demand and capacity rows as the trust-constr oracle writes them
    (the kernel keeps them as slack pairs), and the interior start."""

    def test_matrix_shapes(self):
        sub = make_subproblem()
        matrix, lower = constraint_rows(sub)
        n = sub.num_clouds * sub.num_users
        assert matrix.shape == (sub.num_users + sub.num_clouds, n)
        assert lower.shape == (sub.num_users + sub.num_clouds,)

    def test_demand_rows(self):
        sub = make_subproblem()
        matrix, lower = constraint_rows(sub)
        x = np.arange(sub.num_clouds * sub.num_users, dtype=float)
        values = np.asarray(matrix @ x)
        table = x.reshape(sub.num_clouds, sub.num_users)
        assert np.allclose(values[: sub.num_users], table.sum(axis=0))
        assert np.allclose(lower[: sub.num_users], sub.workloads)

    def test_capacity_rows(self):
        sub = make_subproblem()
        matrix, lower = constraint_rows(sub)
        x = np.arange(sub.num_clouds * sub.num_users, dtype=float)
        values = np.asarray(matrix @ x)
        table = x.reshape(sub.num_clouds, sub.num_users)
        assert np.allclose(values[sub.num_users :], -table.sum(axis=1))
        assert np.allclose(lower[sub.num_users :], -np.asarray(sub.capacities))

    @given(seed=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=25, deadline=None)
    def test_interior_point_strictly_feasible(self, seed):
        sub = make_subproblem(seed=seed % 13)
        x = sub.interior_point().reshape(sub.num_clouds, sub.num_users)
        assert x.min() > 0
        assert (x.sum(axis=0) - np.asarray(sub.workloads)).min() > 0
        assert (np.asarray(sub.capacities) - x.sum(axis=1)).min() > 0

    def test_interior_requires_overprovisioning(self):
        instance = make_tiny_instance()
        sub = RegularizedSubproblem(
            static_prices=np.ones((2, 2)),
            reconfig_prices=np.ones(2),
            migration_prices=np.ones(2),
            capacities=np.array([1.0, 1.0]),
            workloads=np.array([1.0, 1.0]),  # total = capacity: no interior
            x_prev=np.zeros((2, 2)),
            eps1=1.0,
            eps2=1.0,
        )
        with pytest.raises(ValueError, match="strictly feasible"):
            sub.interior_point()


class TestValidation:
    def test_bad_eps(self):
        instance = make_tiny_instance()
        with pytest.raises(ValueError):
            RegularizedSubproblem.from_instance(
                instance, 0, np.zeros((3, 4)), eps1=0.0, eps2=1.0
            )

    def test_bad_x_prev_shape(self):
        instance = make_tiny_instance()
        with pytest.raises(ValueError):
            RegularizedSubproblem.from_instance(
                instance, 0, np.zeros((2, 2)), eps1=1.0, eps2=1.0
            )

    def test_negative_x_prev(self):
        instance = make_tiny_instance()
        with pytest.raises(ValueError):
            RegularizedSubproblem.from_instance(
                instance, 0, np.full((3, 4), -0.1), eps1=1.0, eps2=1.0
            )


class TestKKT:
    def test_residual_small_at_optimum(self):
        sub = make_subproblem(seed=7)
        program = sub.build_program()
        result = InteriorPointBackend().solve(program, tol=1e-9)
        # Capacity is slack in this instance, so rho = 0; recover the
        # tightest dual-feasible theta from the primal solution (the
        # mu/slack estimates of barrier solvers are noisy at tiny slacks).
        grad = sub.gradient(result.x).reshape(sub.num_clouds, sub.num_users)
        rho = np.zeros(sub.num_clouds)
        theta = grad.min(axis=0)
        residual = sub.kkt_stationarity_residual(result.x, theta, rho)
        assert residual < 1e-4

    def test_residual_large_at_random_point(self):
        sub = make_subproblem(seed=8)
        x = sub.interior_point()
        residual = sub.kkt_stationarity_residual(
            x, np.zeros(sub.num_users), np.zeros(sub.num_clouds)
        )
        assert residual > 1e-3
