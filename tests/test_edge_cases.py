"""Edge-case and failure-injection tests across the stack.

Degenerate weights, minimal systems, zero prices, and solver failures —
configurations a production deployment will eventually hit.
"""

import dataclasses

import numpy as np
import pytest

from repro import (
    CostWeights,
    OfflineOptimal,
    OnlineGreedy,
    OnlineRegularizedAllocator,
    ProblemInstance,
    total_cost,
)
from repro.aggregate import AggregationConfig
from repro.pricing.bandwidth import MigrationPrices
from repro.solvers.base import SolverError
from repro.telemetry import telemetry_session
from tests.conftest import make_tiny_instance


def override(instance: ProblemInstance, **kwargs) -> ProblemInstance:
    fields = {f.name: getattr(instance, f.name) for f in dataclasses.fields(instance)}
    fields.update(kwargs)
    return ProblemInstance(**fields)


def run_counting_unconverged(instance: ProblemInstance):
    """Run online-approx; check its uncertified slots finished partial.

    With zero migration prices (or every dynamic price zero, or weighted
    zero) P2 loses the migration entropy's curvature, and the IPM's slacks
    reach float64 rounding before the gap target on some slots. Such a slot is served from the partial
    iterate through the degradation ladder, and counted as unconverged
    rather than as a fired budget.
    """
    algorithm = OnlineRegularizedAllocator()
    with telemetry_session() as registry:
        schedule = algorithm.run(instance)
    partial = sum(result.partial for result in algorithm.last_solves)
    assert partial >= 1
    assert registry.counter("solver.ipm.unconverged").value == partial
    assert registry.counter("solver.ipm.budget_exhausted").value == 0
    return schedule


class TestDegenerateWeights:
    def test_zero_dynamic_weight(self):
        """mu = 0: the regularizer terms vanish entirely from P2."""
        instance = make_tiny_instance(weights=CostWeights(static=1.0, dynamic=0.0))
        schedule = run_counting_unconverged(instance)
        schedule.require_feasible(instance, tol=1e-5)
        # With no dynamic cost, per-slot static optimization is optimal:
        # greedy, approx, and offline all coincide in objective.
        offline = total_cost(OfflineOptimal().run(instance), instance)
        approx = total_cost(schedule, instance)
        assert approx == pytest.approx(offline, rel=1e-3)

    def test_zero_static_weight(self):
        """Static weight 0: only dynamic costs matter; never moving wins."""
        instance = make_tiny_instance(weights=CostWeights(static=0.0, dynamic=1.0))
        schedule = OnlineRegularizedAllocator().run(instance)
        schedule.require_feasible(instance, tol=1e-5)
        offline = total_cost(OfflineOptimal().run(instance), instance)
        approx = total_cost(schedule, instance)
        # Everyone pays at least the initial provisioning; the online
        # algorithm should not pay much more than that.
        assert approx <= 2.0 * offline + 1e-6


class TestMinimalSystems:
    def single_cloud_instance(self, num_slots=3):
        return ProblemInstance(
            workloads=np.array([2.0, 3.0]),
            capacities=np.array([8.0]),
            op_prices=np.linspace(1.0, 2.0, num_slots)[:, None],
            reconfig_prices=np.array([1.0]),
            migration_prices=MigrationPrices(out=np.array([0.5]), into=np.array([0.5])),
            inter_cloud_delay=np.zeros((1, 1)),
            attachment=np.zeros((num_slots, 2), dtype=int),
            access_delay=np.zeros((num_slots, 2)),
        )

    def test_single_cloud(self):
        """One cloud: every algorithm is forced to the same allocation."""
        instance = self.single_cloud_instance()
        offline = total_cost(OfflineOptimal().run(instance), instance)
        greedy = total_cost(OnlineGreedy().run(instance), instance)
        approx = total_cost(OnlineRegularizedAllocator().run(instance), instance)
        assert greedy == pytest.approx(offline, rel=1e-6)
        assert approx == pytest.approx(offline, rel=1e-3)

    def test_single_user_single_slot(self):
        instance = ProblemInstance(
            workloads=np.array([1.0]),
            capacities=np.array([1.0, 1.0]),
            op_prices=np.array([[1.0, 2.0]]),
            reconfig_prices=np.array([1.0, 1.0]),
            migration_prices=MigrationPrices(
                out=np.array([0.5, 0.5]), into=np.array([0.5, 0.5])
            ),
            inter_cloud_delay=np.array([[0.0, 1.0], [1.0, 0.0]]),
            attachment=np.array([[0]]),
            access_delay=np.zeros((1, 1)),
        )
        schedule = OnlineRegularizedAllocator().run(instance)
        schedule.require_feasible(instance, tol=1e-5)
        # Cheap cloud 0 (op 1 < 2, zero delay) takes (almost) everything.
        assert schedule.x[0, 0, 0] > 0.9

    @staticmethod
    def exact_capacity_instance():
        return ProblemInstance(
            workloads=np.array([2.0, 2.0]),
            capacities=np.array([2.0, 2.0]),
            op_prices=np.ones((2, 2)),
            reconfig_prices=np.array([1.0, 1.0]),
            migration_prices=MigrationPrices(
                out=np.array([0.5, 0.5]), into=np.array([0.5, 0.5])
            ),
            inter_cloud_delay=np.array([[0.0, 1.0], [1.0, 0.0]]),
            attachment=np.zeros((2, 2), dtype=int),
            access_delay=np.zeros((2, 2)),
        )

    def test_exact_capacity_no_overprovisioning(self):
        """Total capacity == total workload: P2's strict interior is empty,
        and the LP baselines still work."""
        instance = self.exact_capacity_instance()
        offline = OfflineOptimal().run(instance)
        offline.require_feasible(instance, tol=1e-6)
        greedy = OnlineGreedy().run(instance)
        greedy.require_feasible(instance, tol=1e-6)

    @pytest.mark.parametrize(
        "aggregation",
        [None, AggregationConfig(shards=2)],
        ids=["direct", "aggregated"],
    )
    def test_exact_capacity_is_refused_by_the_online_algorithm(self, aggregation):
        """The IPM's only input-caused failure: with no strict interior it
        has no start point, on the direct and the aggregated path alike."""
        instance = self.exact_capacity_instance()
        algorithm = OnlineRegularizedAllocator(aggregation=aggregation)
        with pytest.raises(
            ValueError, match="total capacity must exceed total workload"
        ):
            algorithm.run(instance)


class TestZeroPrices:
    def test_free_migration(self):
        base = make_tiny_instance()
        instance = override(
            base,
            migration_prices=MigrationPrices(out=np.zeros(3), into=np.zeros(3)),
        )
        schedule = run_counting_unconverged(instance)
        schedule.require_feasible(instance, tol=1e-5)

    def test_free_reconfiguration(self):
        base = make_tiny_instance()
        instance = override(base, reconfig_prices=np.zeros(3))
        schedule = OnlineRegularizedAllocator().run(instance)
        schedule.require_feasible(instance, tol=1e-5)

    def test_all_dynamic_prices_zero(self):
        base = make_tiny_instance()
        instance = override(
            base,
            reconfig_prices=np.zeros(3),
            migration_prices=MigrationPrices(out=np.zeros(3), into=np.zeros(3)),
        )
        schedule = run_counting_unconverged(instance)
        schedule.require_feasible(instance, tol=1e-5)
        # No dynamic prices: the online optimum matches offline slot-wise.
        offline = total_cost(OfflineOptimal().run(instance), instance)
        assert total_cost(schedule, instance) == pytest.approx(offline, rel=1e-3)


class TestSolverFailureInjection:
    def test_allocator_surfaces_solver_error(self, tiny_instance):
        class AlwaysFails:
            name = "always-fails"

            def solve(self, program, *, tol=1e-8):
                raise SolverError("injected failure")

        algorithm = OnlineRegularizedAllocator(backend=AlwaysFails())
        with pytest.raises(SolverError, match="injected"):
            algorithm.run(tiny_instance)
