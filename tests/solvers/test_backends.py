"""Cross-validation of the convex backends on P2 subproblems.

The custom structured interior-point method must agree with SciPy's
trust-constr (the test oracle in ``tests/solvers/trust_constr.py``) on
objective value and solution, across instance shapes,
epsilon scales, and previous-allocation patterns.
"""

import numpy as np
import pytest

from repro.core.subproblem import RegularizedSubproblem
from repro.diagnostics.certificates import duality_gap_bound
from repro.solvers.base import ConvexProgram
from repro.solvers.interior_point import InteriorPointBackend
from tests.conftest import make_tiny_instance
from tests.solvers.trust_constr import TrustConstrOracle, max_violation


def subproblem_case(seed: int, eps: float = 1.0, slot: int = 0, zero_prev: bool = False):
    instance = make_tiny_instance(seed=seed)
    rng = np.random.default_rng(seed + 11)
    shape = (instance.num_clouds, instance.num_users)
    if zero_prev:
        x_prev = np.zeros(shape)
    else:
        x_prev = rng.uniform(0.0, 1.0, size=shape) * np.asarray(instance.workloads)
    return RegularizedSubproblem.from_instance(
        instance, slot, x_prev, eps1=eps, eps2=eps
    )


class TestAgreement:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_objective_agreement(self, seed):
        sub = subproblem_case(seed)
        program = sub.build_program()
        scipy_result = TrustConstrOracle().solve(program, tol=1e-10)
        ipm_result = InteriorPointBackend().solve(program, tol=1e-10)
        scale = max(1.0, abs(scipy_result.objective))
        assert ipm_result.objective == pytest.approx(
            scipy_result.objective, abs=1e-5 * scale
        )

    @pytest.mark.parametrize("eps", [0.01, 1.0, 100.0])
    def test_agreement_across_eps(self, eps):
        sub = subproblem_case(5, eps=eps)
        program = sub.build_program()
        scipy_result = TrustConstrOracle().solve(program, tol=1e-10)
        ipm_result = InteriorPointBackend().solve(program, tol=1e-10)
        assert np.allclose(scipy_result.x, ipm_result.x, atol=5e-3)

    def test_zero_previous_allocation(self):
        # Slot 1 of the online algorithm: x_prev = 0 exactly.
        sub = subproblem_case(6, zero_prev=True)
        program = sub.build_program()
        scipy_result = TrustConstrOracle().solve(program, tol=1e-10)
        ipm_result = InteriorPointBackend().solve(program, tol=1e-10)
        scale = max(1.0, abs(scipy_result.objective))
        assert ipm_result.objective == pytest.approx(
            scipy_result.objective, abs=1e-5 * scale
        )

    def test_ipm_beats_or_matches_feasibility(self):
        sub = subproblem_case(7)
        program = sub.build_program()
        result = InteriorPointBackend().solve(program, tol=1e-9)
        assert max_violation(sub, result.x) <= 1e-8
        assert result.x.min() >= 0.0


class TestIpmBehaviour:
    def test_requires_structure(self):
        # A program is its subproblem: there is none to build without one.
        with pytest.raises(TypeError, match="structure"):
            ConvexProgram()

    def test_duals_nonnegative(self):
        sub = subproblem_case(8)
        result = InteriorPointBackend().solve(sub.build_program(), tol=1e-9)
        assert np.all(result.duals["demand"] >= 0)
        assert np.all(result.duals["capacity"] >= 0)

    def test_iterations_reported(self):
        sub = subproblem_case(10)
        result = InteriorPointBackend().solve(sub.build_program(), tol=1e-8)
        assert result.iterations > 0
        assert result.backend == "structured-ipm"

    @pytest.mark.parametrize("seed", [2, 22])
    def test_large_workloads_at_the_tolerance_floor(self, seed):
        """Workloads in the thousands at tol=1e-10: the binding slacks
        reach float64 rounding before the 0.1*tol stop rule certifies; the
        solve must still return a strictly interior, certified point."""
        rng = np.random.default_rng(seed)
        num_clouds, num_users = 15, 120
        workloads = rng.integers(1, 6, size=num_users) * 1000.0
        capacities = 0.3 + rng.dirichlet(np.ones(num_clouds))
        capacities *= 3.0 * workloads.sum() / capacities.sum()
        sub = RegularizedSubproblem(
            static_prices=rng.uniform(0.05, 2.0, size=(num_clouds, num_users)),
            reconfig_prices=rng.uniform(0.1, 2.0, size=num_clouds),
            migration_prices=rng.uniform(0.1, 2.0, size=num_clouds),
            capacities=capacities,
            workloads=workloads,
            x_prev=rng.uniform(0.0, 1.0, size=(num_clouds, num_users))
            * workloads
            / num_clouds,
            eps1=1e3,
            eps2=1e3,
        )
        result = InteriorPointBackend().solve(sub.build_program(), tol=1e-10)
        x = result.x.reshape(num_clouds, num_users)
        assert x.min() > 0
        assert (x.sum(axis=0) - workloads).min() > 0
        assert (capacities - x.sum(axis=1)).min() > 0
        gap = duality_gap_bound(
            sub, result.x, result.duals["demand"], result.duals["capacity"]
        )
        assert gap <= 1e-6 * max(1.0, abs(result.objective))


class TestScipyBackend:
    def test_previous_allocation_is_optimal_without_static_prices(self):
        # With p = 0 the objective is the two entropy terms alone, which
        # vanish in value and gradient at x = x_prev: a strictly feasible
        # x_prev is the unique optimum.
        sub = subproblem_case(11)
        x_prev = 1.02 * sub.interior_point().reshape(sub.num_clouds, sub.num_users)
        sub = RegularizedSubproblem(
            static_prices=np.zeros_like(x_prev),
            reconfig_prices=sub.reconfig_prices,
            migration_prices=sub.migration_prices,
            capacities=sub.capacities,
            workloads=sub.workloads,
            x_prev=x_prev,
            eps1=sub.eps1,
            eps2=sub.eps2,
        )
        result = TrustConstrOracle().solve(sub.build_program(), tol=1e-10)
        assert np.allclose(result.x, x_prev.ravel(), atol=1e-5)

    def test_binding_constraint(self):
        # Cloud 0 is free and everyone starts there, but it holds only
        # half the demand: its capacity row binds at the optimum.
        sub = subproblem_case(12, zero_prev=True)
        workloads = np.asarray(sub.workloads, dtype=float)
        capacities = np.full(sub.num_clouds, workloads.sum())
        capacities[0] = 0.5 * workloads.sum()
        static = np.ones((sub.num_clouds, sub.num_users))
        static[0] = 0.0
        x_prev = np.zeros_like(static)
        x_prev[0] = 0.5 * workloads
        sub = RegularizedSubproblem(
            static_prices=static,
            reconfig_prices=sub.reconfig_prices,
            migration_prices=sub.migration_prices,
            capacities=capacities,
            workloads=workloads,
            x_prev=x_prev,
            eps1=sub.eps1,
            eps2=sub.eps2,
        )
        program = sub.build_program()
        oracle = TrustConstrOracle().solve(program, tol=1e-10)
        ipm = InteriorPointBackend().solve(program, tol=1e-10)
        cloud_zero = oracle.x.reshape(sub.num_clouds, sub.num_users)[0].sum()
        assert cloud_zero == pytest.approx(capacities[0], rel=1e-5)
        assert ipm.objective == pytest.approx(oracle.objective, rel=1e-5)
