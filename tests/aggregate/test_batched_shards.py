"""The aggregated controller solves each slot through ``solve_sharded``.

Profilers wrap :func:`repro.aggregate.controller.solve_sharded` by name,
so the controller must call the module global, once per slot, and use
what it returns. The reference routed in here is the per-user path's
one-lane :class:`InteriorPointBackend` solve of the reduced program, so
the trajectory must also be bit-identical to it.
"""

import numpy as np

from repro.aggregate import AggregatedController, AggregationConfig
from repro.aggregate import controller as controller_module
from repro.core.regularization import OnlineRegularizedAllocator
from repro.simulation.observations import (
    SystemDescription,
    iter_observations,
)
from repro.simulation.scenario import Scenario
from repro.simulation.spine import simulate
from repro.solvers.base import ConvexProgram, SolveBudget
from repro.solvers.interior_point import InteriorPointBackend


def use_one_lane_reference(monkeypatch) -> list:
    """Route the controller's reduced solves to a counted one-lane solve."""
    calls = []

    def reference(subproblem, *, tol, budget):
        calls.append(subproblem.num_users)
        program = ConvexProgram(structure=subproblem, budget=budget)
        return InteriorPointBackend().solve(program, tol=tol)

    monkeypatch.setattr(controller_module, "solve_sharded", reference)
    return calls


class TestControllerWiring:
    def test_aggregated_trajectory_identical(self, monkeypatch):
        scenario = Scenario(num_users=12, num_slots=4)
        instance = scenario.build(seed=2017)
        system = SystemDescription.from_instance(instance)

        def run():
            controller = AggregatedController(
                system=system, config=AggregationConfig(lambda_buckets=4)
            )
            return simulate(controller, iter_observations(instance), system)

        joint = run()
        calls = use_one_lane_reference(monkeypatch)
        reference = run()
        assert len(calls) == 4
        assert np.array_equal(joint.schedule.x, reference.schedule.x)
        assert joint.breakdown.totals() == reference.breakdown.totals()

    def test_regularized_allocator_aggregation_path(self, monkeypatch):
        instance = Scenario(num_users=10, num_slots=3).build(seed=5)
        algorithm = OnlineRegularizedAllocator(
            aggregation=AggregationConfig(lambda_buckets=4)
        )
        joint = algorithm.run(instance)
        calls = use_one_lane_reference(monkeypatch)
        assert np.array_equal(joint.x, algorithm.run(instance).x)
        assert len(calls) == 3


class TestBudgets:
    def test_the_reduced_solve_keeps_the_whole_iteration_cap(self):
        instance = Scenario(num_users=12, num_slots=3).build(seed=2017)
        system = SystemDescription.from_instance(instance)
        algorithm = OnlineRegularizedAllocator(
            budget=SolveBudget(max_iterations=7),
            aggregation=AggregationConfig(lambda_buckets=4),
        )
        controller = algorithm.as_controller(system)
        simulate(controller, iter_observations(instance), system)
        assert [
            (report.iterations, report.partial_solves)
            for report in controller.last_reports
        ] == [(7, 1)] * 3
