"""In-process lockstep shard solves must match a process fan-out bit for bit.

With one worker, ``solve_sharded`` stacks a slot's shard P2s into one
``solve_batch`` call; with more, it fans them across processes, one
one-lane solve each. Everything observable — the assembled solution,
iteration counts, partial counts, capacity duals, the merged
``solver.ipm.*`` telemetry — must be identical. Budgets: an iteration
cap gives every lane ``max_iterations // K`` on both paths; a deadline
gives each lockstep lane the whole slot deadline (the lanes share one
clock) and each process ``1/K`` of it.
"""

import numpy as np
import pytest

from repro.aggregate import AggregationConfig, make_shard_tasks, solve_sharded
from repro.aggregate.sharding import _solve_shard
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


def assert_solves_identical(lockstep, pooled):
    assert np.array_equal(lockstep.x, pooled.x)
    assert lockstep.iterations == pooled.iterations
    assert lockstep.partial_solves == pooled.partial_solves
    if pooled.capacity_duals is None:
        assert lockstep.capacity_duals is None
    else:
        assert np.array_equal(lockstep.capacity_duals, pooled.capacity_duals)


class TestBitIdentity:
    @pytest.mark.parametrize("shards", [1, 3])
    @pytest.mark.parametrize("priced", [False, True])
    def test_matches_executor_path(self, shards, priced):
        # priced: the shard slices follow the previous solve's capacity
        # duals, as they do from the second slot of a run onwards.
        # 10 users in 3 shards are blocks of 4, 3 and 3: two shape groups.
        sub = random_subproblem(11 + shards, num_users=10)
        duals = None
        if priced:
            duals = solve_sharded(sub, shards=shards).capacity_duals
            assert duals is not None
        lockstep = solve_sharded(sub, shards=shards, capacity_duals=duals)
        pooled = solve_sharded(sub, shards=shards, capacity_duals=duals, workers=2)
        assert_solves_identical(lockstep, pooled)


class TestTelemetryParity:
    def test_solver_counters_match_serial(self):
        sub = random_subproblem(42)
        with telemetry_session() as serial_registry:
            for task in make_shard_tasks(sub, 3):
                _solve_shard(task)
        with telemetry_session() as pooled_registry:
            solve_sharded(sub, shards=3, workers=2)
        with telemetry_session() as lockstep_registry:
            solve_sharded(sub, shards=3)
        snapshots = {
            name: registry.snapshot()
            for name, registry in (
                ("serial", serial_registry),
                ("pooled", pooled_registry),
                ("lockstep", lockstep_registry),
            )
        }

        def solver_view(snapshot):
            counters = {
                name: value
                for name, value in snapshot["counters"].items()
                if name.startswith("solver.ipm.") or name == "solver.iterations"
            }
            events = snapshot["events"]
            traces = [e["trace"] for e in events if e["type"] == "solver.ipm.trace"]
            return counters, traces

        serial = solver_view(snapshots["serial"])
        assert serial[0]["solver.ipm.solves"] == 3
        assert solver_view(snapshots["pooled"]) == serial
        assert solver_view(snapshots["lockstep"]) == serial
        lockstep = snapshots["lockstep"]
        assert lockstep["counters"]["solver.batched.calls"] == 1
        assert lockstep["counters"]["solver.batched.instances"] == 3
        assert "solver.batched.calls" not in snapshots["pooled"]["counters"]


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

    def test_process_shards_keep_a_share_of_the_deadline(self):
        sub = random_subproblem(7)
        budget = SolveBudget(deadline_s=6.0)
        pooled = make_shard_tasks(sub, 3, budget=budget)
        lockstep = make_shard_tasks(sub, 3, budget=budget, shared_clock=True)
        assert [task.deadline_s for task in pooled] == [2.0] * 3
        assert [task.deadline_s for task in lockstep] == [6.0] * 3

    @pytest.mark.parametrize("workers", [1, 2])
    def test_each_lane_keeps_its_share_of_an_iteration_cap(self, workers):
        sub = random_subproblem(7)
        solve = solve_sharded(
            sub, shards=3, workers=workers, budget=SolveBudget(max_iterations=10)
        )
        # 10 // 3 = 3 steps per lane, on both paths.
        assert solve.partial_solves == 3
        assert solve.iterations == 3 * 3


class TestControllerWiring:
    def test_aggregated_trajectory_identical(self):
        scenario = Scenario(num_users=12, num_slots=4)
        instance = scenario.build(seed=2017)
        system = SystemDescription.from_instance(instance)

        def run(config):
            from repro.aggregate import AggregatedController

            controller = AggregatedController(system=system, config=config)
            return simulate(controller, iter_observations(instance), system)

        lockstep = run(AggregationConfig(lambda_buckets=4, shards=2))
        pooled = run(AggregationConfig(lambda_buckets=4, shards=2, workers=2))
        assert np.array_equal(lockstep.schedule.x, pooled.schedule.x)
        assert lockstep.breakdown.totals() == pooled.breakdown.totals()

    def test_regularized_allocator_aggregation_path(self):
        scenario = Scenario(num_users=10, num_slots=3)
        instance = scenario.build(seed=5)
        lockstep = OnlineRegularizedAllocator(
            aggregation=AggregationConfig(lambda_buckets=4, shards=2)
        ).run(instance)
        pooled = OnlineRegularizedAllocator(
            aggregation=AggregationConfig(lambda_buckets=4, shards=2, workers=2)
        ).run(instance)
        assert np.array_equal(lockstep.x, pooled.x)
