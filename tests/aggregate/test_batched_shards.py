"""Batched shard solves must be indistinguishable from the serial loop.

``solve_sharded(..., batch_solves=True)`` stacks a slot's shard P2s into
one batched-IPM call. Everything observable — the assembled solution,
iteration counts, capacity duals, telemetry aggregates — must match the
executor path bit-for-bit.
"""

import numpy as np
import pytest

from repro.aggregate import AggregationConfig, solve_sharded
from repro.core.regularization import OnlineRegularizedAllocator
from repro.core.subproblem import RegularizedSubproblem
from repro.simulation.observations import (
    SystemDescription,
    iter_observations,
)
from repro.simulation.scenario import Scenario
from repro.simulation.spine import simulate
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


def assert_solves_identical(serial, batched):
    assert np.array_equal(serial.x, batched.x)
    assert serial.iterations == batched.iterations
    assert serial.partial_solves == batched.partial_solves
    if serial.capacity_duals is None:
        assert batched.capacity_duals is None
    else:
        assert np.array_equal(serial.capacity_duals, batched.capacity_duals)


class TestBitIdentity:
    @pytest.mark.parametrize("shards", [1, 3])
    @pytest.mark.parametrize("priced", [False, True])
    def test_matches_executor_path(self, shards, priced):
        # priced: the shard slices follow the previous solve's capacity
        # duals, as they do from the second slot of a run onwards.
        sub = random_subproblem(11 + shards)
        duals = None
        if priced:
            duals = solve_sharded(sub, shards=shards).capacity_duals
            assert duals is not None
        serial = solve_sharded(sub, shards=shards, capacity_duals=duals)
        batched = solve_sharded(
            sub, shards=shards, capacity_duals=duals, batch_solves=True
        )
        assert_solves_identical(serial, batched)

    def test_ipm_backend(self):
        sub = random_subproblem(23)
        serial = solve_sharded(sub, shards=3)
        batched = solve_sharded(sub, shards=3, batch_solves=True)
        assert_solves_identical(serial, batched)


class TestTelemetryParity:
    def test_solver_counters_match_serial(self):
        sub = random_subproblem(42)
        with telemetry_session() as serial_registry:
            solve_sharded(sub, shards=3)
        with telemetry_session() as batched_registry:
            solve_sharded(sub, shards=3, batch_solves=True)
        ser = serial_registry.snapshot()
        bat = batched_registry.snapshot()
        for name in ("solver.ipm.solves", "solver.iterations"):
            assert bat["counters"].get(name) == ser["counters"].get(name), name
        ser_traces = [
            e for e in ser["events"] if e["type"] == "solver.ipm.trace"
        ]
        bat_traces = [
            e for e in bat["events"] if e["type"] == "solver.ipm.trace"
        ]
        assert [t["trace"] for t in bat_traces] == [
            t["trace"] for t in ser_traces
        ]
        assert bat["counters"]["solver.batched.instances"] == 3
        assert bat["histograms"]["solver.batched.batch_size"]["max"] == 3


class TestControllerWiring:
    def test_aggregated_trajectory_identical(self):
        scenario = Scenario(num_users=12, num_slots=4)
        instance = scenario.build(seed=2017)
        system = SystemDescription.from_instance(instance)

        def run(config):
            from repro.aggregate import AggregatedController

            controller = AggregatedController(system=system, config=config)
            return simulate(controller, iter_observations(instance), system)

        plain = run(AggregationConfig(lambda_buckets=4, shards=2))
        batched = run(
            AggregationConfig(lambda_buckets=4, shards=2, batch_solves=True)
        )
        assert np.array_equal(plain.schedule.x, batched.schedule.x)
        assert plain.breakdown.totals() == batched.breakdown.totals()

    def test_scale_plumbs_batch_solves(self):
        from repro.experiments.settings import ExperimentScale, aggregation_config

        scale = ExperimentScale(aggregate=True, batch_solves=True)
        assert aggregation_config(scale).batch_solves

    def test_regularized_allocator_aggregation_path(self):
        scenario = Scenario(num_users=10, num_slots=3)
        instance = scenario.build(seed=5)
        plain = OnlineRegularizedAllocator(
            aggregation=AggregationConfig(lambda_buckets=4, shards=2)
        ).run(instance)
        batched = OnlineRegularizedAllocator(
            aggregation=AggregationConfig(
                lambda_buckets=4, shards=2, batch_solves=True
            )
        ).run(instance)
        assert np.array_equal(plain.x, batched.x)
