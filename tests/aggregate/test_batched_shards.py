"""A slot's lockstep shard solve must match one-lane solves bit for bit.

``solve_sharded`` stacks a slot's shard P2s into one ``solve_batch``
call. The reference is a loop of one-lane ``InteriorPointBackend`` solves
on the programs ``make_shard_tasks`` builds. Everything observable — the
assembled solution, iteration counts, partial counts, capacity duals,
the ``solver.ipm.*`` telemetry — must be identical. Budgets: an
iteration cap gives every lane ``max_iterations // K``; a deadline gives
each lane the whole slot deadline (the lanes share one clock).
"""

import numpy as np
import pytest

from repro.aggregate import (
    AggregatedController,
    AggregationConfig,
    make_shard_tasks,
    solve_sharded,
)
from repro.aggregate import controller as controller_module
from repro.aggregate.sharding import ShardedSolve
from repro.core.regularization import OnlineRegularizedAllocator
from repro.core.subproblem import RegularizedSubproblem
from repro.simulation.observations import (
    SystemDescription,
    iter_observations,
)
from repro.simulation.scenario import Scenario
from repro.simulation.spine import simulate
from repro.solvers import batched
from repro.solvers.base import SolveBudget
from repro.solvers.interior_point import InteriorPointBackend
from repro.telemetry import telemetry_session


def random_subproblem(seed: int, num_clouds: int = 4, num_users: int = 9):
    rng = np.random.default_rng(seed)
    workloads = rng.integers(1, 6, size=num_users).astype(float)
    capacities = workloads.sum() * (0.3 + rng.dirichlet(np.ones(num_clouds)))
    capacities *= 1.5 * workloads.sum() / capacities.sum()
    x_prev = rng.uniform(0.0, 1.0, size=(num_clouds, num_users))
    x_prev *= workloads[None, :] / num_clouds
    return RegularizedSubproblem(
        static_prices=rng.uniform(0.05, 2.0, size=(num_clouds, num_users)),
        reconfig_prices=rng.uniform(0.1, 2.0, size=num_clouds),
        migration_prices=rng.uniform(0.1, 2.0, size=num_clouds),
        capacities=capacities,
        workloads=workloads,
        x_prev=x_prev,
        eps1=0.5,
        eps2=0.7,
    )


def one_lane_reference(sub, shards, *, tol=1e-8, capacity_duals=None, budget=None):
    """The sharded solve as one one-lane IPM solve per shard program."""
    programs = make_shard_tasks(
        sub, shards, capacity_duals=capacity_duals, budget=budget
    )
    subs = [program.structure for program in programs]
    results = [InteriorPointBackend().solve(program, tol=tol) for program in programs]
    weights = np.array([shard.workloads.sum() for shard in subs])
    weights /= weights.sum()
    duals = np.zeros(sub.num_clouds)
    for weight, result in zip(weights, results):
        duals += weight * result.duals["capacity"]
    return ShardedSolve(
        x=np.concatenate(
            [
                np.asarray(result.x).reshape(shard.num_clouds, shard.num_users)
                for shard, result in zip(subs, results)
            ],
            axis=1,
        ),
        iterations=sum(result.iterations for result in results),
        partial_solves=sum(result.partial for result in results),
        capacity_duals=duals,
    )


def assert_solves_identical(lockstep, reference):
    assert np.array_equal(lockstep.x, reference.x)
    assert lockstep.iterations == reference.iterations
    assert lockstep.partial_solves == reference.partial_solves
    assert np.array_equal(lockstep.capacity_duals, reference.capacity_duals)


class TestBitIdentity:
    @pytest.mark.parametrize("shards", [1, 3])
    @pytest.mark.parametrize("priced", [False, True])
    def test_matches_executor_path(self, shards, priced):
        # The reference executes each shard program as its own one-lane
        # IPM solve.
        # priced: the shard slices follow the previous solve's capacity
        # duals, as they do from the second slot of a run onwards.
        # 10 users in 3 shards are blocks of 4, 3 and 3: two shape groups.
        sub = random_subproblem(11 + shards, num_users=10)
        duals = None
        if priced:
            duals = solve_sharded(sub, shards=shards).capacity_duals
            assert duals is not None
        lockstep = solve_sharded(sub, shards=shards, capacity_duals=duals)
        reference = one_lane_reference(sub, shards, capacity_duals=duals)
        assert_solves_identical(lockstep, reference)


def solver_view(registry):
    """The ``solver.ipm.*`` counters, iterations and traces a solve recorded."""
    snapshot = registry.snapshot()
    counters = {
        name: value
        for name, value in snapshot["counters"].items()
        if name.startswith("solver.ipm.") or name == "solver.iterations"
    }
    events = snapshot["events"]
    traces = [e["trace"] for e in events if e["type"] == "solver.ipm.trace"]
    return counters, traces


class TestTelemetryParity:
    def test_solver_counters_match_serial(self):
        # Serial: the one-lane solves, one after another. Unpriced and
        # priced slices; 10 users in 3 shards are two shape groups.
        sub = random_subproblem(42, num_users=10)
        for shards in (1, 3):
            for duals in (None, solve_sharded(sub, shards=shards).capacity_duals):
                with telemetry_session() as serial_registry:
                    one_lane_reference(sub, shards, capacity_duals=duals)
                with telemetry_session() as lockstep_registry:
                    solve_sharded(sub, shards=shards, capacity_duals=duals)
                serial = solver_view(serial_registry)
                assert serial[0]["solver.ipm.solves"] == shards
                assert solver_view(lockstep_registry) == serial
                lockstep = lockstep_registry.snapshot()["counters"]
                assert lockstep["solver.batched.calls"] == 1
                assert lockstep["solver.batched.instances"] == shards


class FakeClock:
    """Stands in for the ``time`` module: every read advances one second."""

    def __init__(self):
        self.now = 0.0

    def perf_counter(self):
        self.now += 1.0
        return self.now


class TestBudgets:
    def test_lockstep_lanes_get_the_whole_slot_deadline(self, monkeypatch):
        sub = random_subproblem(7)
        unbudgeted = solve_sharded(sub, shards=3)
        monkeypatch.setattr(batched, "time", FakeClock())
        solve = solve_sharded(sub, shards=3, budget=SolveBudget(deadline_s=6.0))
        # One read starts the call and one opens each lockstep step, so
        # the clock reaches 6 s at the sixth step check: every lane takes
        # five steps. A 1/K slice (2 s) would have stopped each after one.
        assert unbudgeted.iterations > 3 * 5
        assert solve.partial_solves == 3
        assert solve.iterations == 3 * 5

    def test_shape_groups_share_the_deadline(self, monkeypatch):
        # 10 users in 3 shards: one lane of 4 users, two of 3, solved as
        # two lockstep groups in turn on the call's one clock.
        sub = random_subproblem(7, num_users=10)
        monkeypatch.setattr(batched, "time", FakeClock())
        solve = solve_sharded(sub, shards=3, budget=SolveBudget(deadline_s=6.0))
        # The first group spends the deadline; the second finds it spent
        # at its first check and returns its start points. A clock per
        # group would have given the second group five steps per lane too.
        assert solve.partial_solves == 3
        assert solve.iterations == 5

    @pytest.mark.parametrize("cap", [10, 7])
    def test_each_lane_keeps_its_share_of_an_iteration_cap(self, cap):
        sub = random_subproblem(7)
        budget = SolveBudget(max_iterations=cap)
        solve = solve_sharded(sub, shards=3, budget=budget)
        # cap // 3 steps per lane.
        assert solve.partial_solves == 3
        assert solve.iterations == 3 * (cap // 3)
        assert_solves_identical(solve, one_lane_reference(sub, 3, budget=budget))


def use_one_lane_shards(monkeypatch):
    """Route the aggregated controller's shard solves to the reference."""

    def reference(subproblem, *, shards, tol, capacity_duals, budget):
        return one_lane_reference(
            subproblem, shards, tol=tol, capacity_duals=capacity_duals, budget=budget
        )

    monkeypatch.setattr(controller_module, "solve_sharded", reference)


class TestControllerWiring:
    def test_aggregated_trajectory_identical(self, monkeypatch):
        scenario = Scenario(num_users=12, num_slots=4)
        instance = scenario.build(seed=2017)
        system = SystemDescription.from_instance(instance)

        def run():
            controller = AggregatedController(
                system=system,
                config=AggregationConfig(lambda_buckets=4, shards=2),
            )
            return simulate(controller, iter_observations(instance), system)

        lockstep = run()
        use_one_lane_shards(monkeypatch)
        reference = run()
        assert np.array_equal(lockstep.schedule.x, reference.schedule.x)
        assert lockstep.breakdown.totals() == reference.breakdown.totals()

    def test_regularized_allocator_aggregation_path(self, monkeypatch):
        instance = Scenario(num_users=10, num_slots=3).build(seed=5)
        algorithm = OnlineRegularizedAllocator(
            aggregation=AggregationConfig(lambda_buckets=4, shards=2)
        )
        lockstep = algorithm.run(instance)
        use_one_lane_shards(monkeypatch)
        assert np.array_equal(lockstep.x, algorithm.run(instance).x)
