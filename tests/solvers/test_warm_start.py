"""Starting points: who uses ``x0`` and who ignores it.

P2 programs carry no ``x0``; every backend starts them from the
subproblem's canonical interior point. Generic programs may still carry
one. The structured primal-dual IPM always cold-starts from the interior
point (a warm primal start with fresh central-path duals measured no
cheaper), so its floats must not depend on ``x0`` at all. The generic
trust-constr oracle does start from ``x0``. Every backend must recover,
not crash, when ``x0`` is infeasible.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from scipy import sparse

from repro.core.regularization import OnlineRegularizedAllocator
from repro.core.subproblem import RegularizedSubproblem
from repro.simulation.scenario import Scenario
from repro.solvers import InteriorPointBackend
from repro.solvers.base import ConvexProgram
from tests.solvers.trust_constr import TrustConstrOracle, starting_point


@pytest.fixture(scope="module")
def instance():
    return Scenario(num_users=8, num_slots=3).build(seed=42)


@pytest.fixture(scope="module")
def subproblem(instance):
    x_prev = np.zeros((instance.num_clouds, instance.num_users))
    return RegularizedSubproblem.from_instance(
        instance, 0, x_prev, eps1=1.0, eps2=1.0
    )


def assert_same_result(left, right):
    assert np.array_equal(left.x, right.x)
    assert left.objective == right.objective
    assert left.iterations == right.iterations


def with_x0(subproblem, x0):
    """The subproblem's program carrying an explicit starting point."""
    return replace(subproblem.build_program(), x0=x0)


class TestWarmStartContract:
    def test_warm_program_same_objective_per_solve(self, subproblem):
        """One-shot check at the subproblem level: x0 is not a start."""
        ipm = InteriorPointBackend()
        cold = ipm.solve(subproblem.build_program(), tol=1e-8)
        x_warm = 0.9 * cold.x + 0.1 * subproblem.interior_point()
        warm = ipm.solve(with_x0(subproblem, x_warm), tol=1e-8)
        assert_same_result(warm, cold)

    def test_scipy_backend_accepts_warm_start(self, subproblem):
        scipy_backend = TrustConstrOracle()
        cold = scipy_backend.solve(subproblem.build_program(), tol=1e-8)
        warm = scipy_backend.solve(with_x0(subproblem, cold.x), tol=1e-8)
        assert warm.objective == pytest.approx(cold.objective, rel=1e-6)


class TestInfeasibleWarmStart:
    def test_ipm_recovers_from_infeasible_x0(self, subproblem):
        """A zero allocation violates every demand constraint; the backend
        must fall back to its canonical interior point, not crash."""
        n = subproblem.num_clouds * subproblem.num_users
        cold = InteriorPointBackend().solve(subproblem.build_program(), tol=1e-8)
        degenerate = InteriorPointBackend().solve(
            with_x0(subproblem, np.zeros(n)), tol=1e-8
        )
        assert degenerate.objective == pytest.approx(cold.objective, rel=1e-7)

    def test_scipy_recovers_from_infeasible_x0(self, subproblem):
        n = subproblem.num_clouds * subproblem.num_users
        cold = TrustConstrOracle().solve(subproblem.build_program(), tol=1e-8)
        degenerate = TrustConstrOracle().solve(
            with_x0(subproblem, np.zeros(n)), tol=1e-8
        )
        assert degenerate.objective == pytest.approx(cold.objective, rel=1e-5)

    def test_auto_recovers_from_infeasible_x0(self, subproblem):
        n = subproblem.num_clouds * subproblem.num_users
        result = OnlineRegularizedAllocator().backend.solve(
            with_x0(subproblem, np.zeros(n)), tol=1e-8
        )
        assert np.isfinite(result.objective)


class TestOptionalX0:
    def test_program_without_x0_reports_sizes(self):
        program = ConvexProgram(
            objective=lambda v: float(v @ v),
            gradient=lambda v: 2 * v,
            constraint_matrix=sparse.csr_matrix((0, 3)),
            constraint_lower=np.zeros(0),
            x_lower=np.zeros(3),
        )
        assert program.x0 is None
        assert program.num_variables == 3

    def test_starting_point_prefers_x0(self, subproblem):
        x0 = subproblem.interior_point() * 1.01
        assert np.array_equal(starting_point(with_x0(subproblem, x0)), x0)

    def test_starting_point_uses_structure_interior(self, subproblem):
        program = subproblem.build_program()
        assert np.array_equal(starting_point(program), subproblem.interior_point())

    def test_starting_point_falls_back_to_lower_bounds(self):
        program = ConvexProgram(
            objective=lambda v: float(v @ v),
            gradient=lambda v: 2 * v,
            constraint_matrix=sparse.csr_matrix((0, 2)),
            constraint_lower=np.zeros(0),
            x_lower=np.ones(2),
        )
        assert np.array_equal(starting_point(program), np.ones(2))

    def test_build_program_defaults_x0_to_interior_point(self, subproblem):
        """P2 programs leave ``x0`` unset, so every backend starts them at
        the structure's interior point (see the test above)."""
        assert subproblem.build_program().x0 is None
