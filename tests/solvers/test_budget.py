"""Deadline budgets: partial solves and feasibility.

The serving contract (docs/SERVING.md) rests on two solver-level
guarantees: a fired budget yields a *feasible* partial iterate, and a
``None`` budget is bit-identical to no budget at all.
"""

import numpy as np
import pytest

from repro.core.regularization import OnlineRegularizedAllocator
from repro.core.subproblem import RegularizedSubproblem
from repro.solvers.base import ConvexProgram, SolveBudget
from repro.solvers.interior_point import InteriorPointBackend
from tests.conftest import make_tiny_instance
from tests.solvers.trust_constr import max_violation


def _program(seed: int = 0, budget: SolveBudget | None = None) -> ConvexProgram:
    instance = make_tiny_instance(seed=seed)
    rng = np.random.default_rng(seed + 7)
    shape = (instance.num_clouds, instance.num_users)
    x_prev = rng.uniform(0.0, 1.0, size=shape) * np.asarray(instance.workloads)
    sub = RegularizedSubproblem.from_instance(instance, 0, x_prev, eps1=1.0, eps2=1.0)
    program = sub.build_program()
    program.budget = budget
    return program


class TestSolveBudget:
    def test_exhausted_by_either_limit(self):
        budget = SolveBudget(deadline_s=1.0, max_iterations=10)
        assert not budget.exhausted(elapsed_s=0.5, iterations=5)
        assert budget.exhausted(elapsed_s=1.0, iterations=5)
        assert budget.exhausted(elapsed_s=0.5, iterations=10)

    def test_unset_limits_never_fire(self):
        budget = SolveBudget()
        assert not budget.exhausted(elapsed_s=1e9, iterations=10**9)


class TestPartialSolves:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_iteration_budget_yields_feasible_partial(self, seed):
        program = _program(seed, budget=SolveBudget(max_iterations=1))
        result = InteriorPointBackend().solve(program, tol=1e-10)
        assert result.partial
        assert result.iterations <= 1
        # The iterate is strictly interior, hence feasible.
        assert max_violation(program.structure, result.x) <= 1e-9

    def test_zero_deadline_fires_immediately_but_stays_feasible(self):
        program = _program(3, budget=SolveBudget(deadline_s=0.0))
        result = InteriorPointBackend().solve(program, tol=1e-10)
        assert result.partial
        assert max_violation(program.structure, result.x) <= 1e-9

    def test_none_budget_is_bit_identical_to_no_budget(self):
        backend = InteriorPointBackend()
        plain = backend.solve(_program(4), tol=1e-10)
        budgeted = backend.solve(
            _program(4, budget=SolveBudget()), tol=1e-10
        )
        assert not plain.partial and not budgeted.partial
        assert np.array_equal(plain.x, budgeted.x)
        assert plain.objective == budgeted.objective
        assert plain.iterations == budgeted.iterations

    def test_generous_budget_converges_like_no_budget(self):
        backend = InteriorPointBackend()
        plain = backend.solve(_program(5), tol=1e-10)
        generous = backend.solve(
            _program(5, budget=SolveBudget(deadline_s=1e6, max_iterations=10**6)),
            tol=1e-10,
        )
        assert not generous.partial
        assert np.array_equal(plain.x, generous.x)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_budget_firing_on_a_certified_iterate_is_not_partial(self, seed):
        # The budget check and the stop rule run on the same iterate: a
        # budget of exactly the steps the solve needs changes nothing, and
        # one step fewer leaves an uncertified (partial) iterate.
        backend = InteriorPointBackend()
        tol = 1e-8
        plain = backend.solve(_program(seed), tol=tol)
        assert plain.gap <= 0.1 * tol
        exact = backend.solve(
            _program(seed, budget=SolveBudget(max_iterations=plain.iterations)),
            tol=tol,
        )
        assert not exact.partial
        assert np.array_equal(plain.x, exact.x)
        assert exact.gap == plain.gap
        short = backend.solve(
            _program(seed, budget=SolveBudget(max_iterations=plain.iterations - 1)),
            tol=tol,
        )
        assert short.partial
        assert short.gap > 0.1 * tol


class TestDegradationLadder:
    def test_partial_slot_never_beats_attached_cloud_repair(self):
        # An attachment row that is capacity-feasible, so the ladder's
        # attached-cloud comparison is active: loads (6, 3, 1) vs (6, 5, 4).
        instance = make_tiny_instance(seed=2)
        instance.attachment[1] = [0, 1, 2, 0]
        x_prev = np.zeros((instance.num_clouds, instance.num_users))
        allocator = OnlineRegularizedAllocator(
            backend=InteriorPointBackend(), budget=SolveBudget(max_iterations=1)
        )
        x_t, result = allocator.step(instance, 1, x_prev)
        assert result.partial
        sub = RegularizedSubproblem.from_instance(
            instance, 1, x_prev, eps1=allocator.eps1, eps2=allocator.eps2
        )
        attached = np.zeros_like(x_t)
        attached[instance.attachment[1], np.arange(instance.num_users)] = (
            instance.workloads
        )
        assert sub.objective(x_t.ravel()) <= sub.objective(attached.ravel()) + 1e-9

    @pytest.mark.parametrize("max_iterations", range(1, 11))
    def test_partial_iterates_at_every_budget(self, max_iterations):
        """Budgets 1-10 over a whole trajectory: every partial iterate is
        strictly interior, and every served slot costs no more (in P2) than
        the attached-cloud allocation whenever that one is feasible."""
        instance = make_tiny_instance(seed=2)
        instance.attachment[1] = [0, 1, 2, 0]
        allocator = OnlineRegularizedAllocator(
            backend=InteriorPointBackend(),
            budget=SolveBudget(max_iterations=max_iterations),
        )
        x_prev = np.zeros((instance.num_clouds, instance.num_users))
        capacities = np.asarray(instance.capacities, dtype=float)
        workloads = np.asarray(instance.workloads, dtype=float)
        partial = 0
        for slot in range(instance.num_slots):
            x_t, result = allocator.step(instance, slot, x_prev)
            assert result.iterations <= max_iterations
            if result.partial:
                partial += 1
                x = result.x.reshape(x_t.shape)
                assert x.min() > 0
                assert (x.sum(axis=0) - workloads).min() > 0
                assert (capacities - x.sum(axis=1)).min() > 0
            sub = RegularizedSubproblem.from_instance(
                instance, slot, x_prev, eps1=allocator.eps1, eps2=allocator.eps2
            )
            attached = np.zeros_like(x_t)
            attached[instance.attachment[slot], np.arange(instance.num_users)] = (
                workloads
            )
            if (attached.sum(axis=1) <= capacities).all():
                assert sub.objective(x_t.ravel()) <= sub.objective(
                    attached.ravel()
                ) + 1e-9
            x_prev = x_t
        if max_iterations <= 3:
            assert partial == instance.num_slots

    def test_unbudgeted_allocator_never_reports_partial(self):
        instance = make_tiny_instance(seed=3)
        x_prev = np.zeros((instance.num_clouds, instance.num_users))
        allocator = OnlineRegularizedAllocator(backend=InteriorPointBackend())
        _, result = allocator.step(instance, 0, x_prev)
        assert not result.partial

