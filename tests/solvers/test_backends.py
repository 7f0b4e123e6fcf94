"""Cross-validation of the convex backends on P2 subproblems.

The custom structured interior-point method must agree with SciPy's
trust-constr (the test oracle in ``tests/solvers/trust_constr.py``) on
objective value and solution, across instance shapes,
epsilon scales, and previous-allocation patterns.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.subproblem import RegularizedSubproblem
from repro.diagnostics.certificates import duality_gap_bound
from repro.solvers.base import ConvexProgram, SolverError
from repro.solvers.interior_point import InteriorPointBackend
from tests.conftest import make_tiny_instance
from tests.solvers.trust_constr import TrustConstrOracle


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
        assert program.max_violation(result.x) <= 1e-8
        assert result.x.min() >= 0.0


class TestIpmBehaviour:
    def test_requires_structure(self):
        program = ConvexProgram(
            objective=lambda x: float(np.sum(x**2)),
            gradient=lambda x: 2 * x,
            constraint_matrix=__import__("scipy.sparse", fromlist=["eye"]).eye(2),
            constraint_lower=np.zeros(2),
            x_lower=np.zeros(2),
            x0=np.ones(2),
        )
        with pytest.raises(SolverError, match="structure"):
            InteriorPointBackend().solve(program)

    def test_duals_nonnegative(self):
        sub = subproblem_case(8)
        result = InteriorPointBackend().solve(sub.build_program(), tol=1e-9)
        assert np.all(result.duals["demand"] >= 0)
        assert np.all(result.duals["capacity"] >= 0)

    def test_infeasible_start_falls_back_to_interior(self):
        sub = subproblem_case(9)
        program = replace(
            sub.build_program(), x0=np.zeros(sub.num_clouds * sub.num_users)
        )
        result = InteriorPointBackend().solve(program, tol=1e-9)
        assert program.max_violation(result.x) <= 1e-8

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
    def test_simple_quadratic(self):
        # min (x - 2)^2 + (y - 2)^2 s.t. x + y >= 1, x, y >= 0 -> (2, 2).
        from scipy import sparse

        program = ConvexProgram(
            objective=lambda v: float((v[0] - 2) ** 2 + (v[1] - 2) ** 2),
            gradient=lambda v: np.array([2 * (v[0] - 2), 2 * (v[1] - 2)]),
            constraint_matrix=sparse.csr_matrix(np.array([[1.0, 1.0]])),
            constraint_lower=np.array([1.0]),
            x_lower=np.zeros(2),
            x0=np.array([1.0, 1.0]),
        )
        result = TrustConstrOracle().solve(program, tol=1e-10)
        assert np.allclose(result.x, [2.0, 2.0], atol=1e-6)

    def test_binding_constraint(self):
        # min x^2 + y^2 s.t. x + y >= 2 -> (1, 1).
        from scipy import sparse

        program = ConvexProgram(
            objective=lambda v: float(v @ v),
            gradient=lambda v: 2 * v,
            constraint_matrix=sparse.csr_matrix(np.array([[1.0, 1.0]])),
            constraint_lower=np.array([2.0]),
            x_lower=np.zeros(2),
            x0=np.array([2.0, 2.0]),
        )
        result = TrustConstrOracle().solve(program, tol=1e-10)
        assert np.allclose(result.x, [1.0, 1.0], atol=1e-6)
