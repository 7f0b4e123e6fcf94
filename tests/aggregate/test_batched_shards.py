"""Batched shard solves must be indistinguishable from the serial loop.

``solve_sharded(..., batch_solves=True)`` stacks a slot's shard P2s into
one batched-IPM call. Everything observable — the assembled solution,
iteration counts, capacity duals, telemetry aggregates, fallback and
circuit-breaker bookkeeping — must match the executor path bit-for-bit.
"""

import numpy as np
import pytest

from repro.aggregate import AggregationConfig, solve_sharded
from repro.aggregate.sharding import _batchable_backend
from repro.core.regularization import OnlineRegularizedAllocator
from repro.core.subproblem import RegularizedSubproblem
from repro.simulation.observations import (
    SystemDescription,
    iter_observations,
)
from repro.simulation.scenario import Scenario
from repro.simulation.spine import simulate
from repro.solvers.base import SolverError
from repro.solvers.interior_point import InteriorPointBackend
from repro.solvers.registry import FallbackBackend, get_backend
from repro.solvers.scipy_backend import ScipyTrustConstrBackend
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
        get_backend("auto").reset_circuit()
        serial = solve_sharded(sub, shards=shards, capacity_duals=duals)
        get_backend("auto").reset_circuit()
        batched = solve_sharded(
            sub, shards=shards, capacity_duals=duals, batch_solves=True
        )
        assert_solves_identical(serial, batched)

    def test_ipm_backend(self):
        sub = random_subproblem(23)
        serial = solve_sharded(sub, shards=3, backend="ipm")
        batched = solve_sharded(
            sub, shards=3, backend="ipm", batch_solves=True
        )
        assert_solves_identical(serial, batched)

    def test_unbatchable_backend_degrades_to_executor(self):
        assert not _batchable_backend(get_backend("scipy"))
        sub = random_subproblem(31, num_clouds=3, num_users=5)
        serial = solve_sharded(sub, shards=2, backend="scipy", tol=1e-6)
        batched = solve_sharded(
            sub, shards=2, backend="scipy", tol=1e-6, batch_solves=True
        )
        assert_solves_identical(serial, batched)

    def test_batchable_backend_predicate(self):
        assert _batchable_backend(get_backend("ipm"))
        assert _batchable_backend(get_backend("auto"))
        assert not _batchable_backend(ScipyTrustConstrBackend())


class TestTelemetryParity:
    def test_solver_counters_match_serial(self):
        sub = random_subproblem(42)
        get_backend("auto").reset_circuit()
        with telemetry_session() as serial_registry:
            solve_sharded(sub, shards=3)
        get_backend("auto").reset_circuit()
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


class _BoomPrimary(InteriorPointBackend):
    """A structured-IPM lookalike whose sequential solve always fails."""

    def solve(self, program, *, tol=1e-8):
        raise SolverError("injected primary failure")


class TestFallbackParity:
    def _program(self, seed=7):
        sub = random_subproblem(seed, num_clouds=3, num_users=4)
        return sub.build_program()

    def test_absorb_primary_failure_matches_solve(self):
        program = self._program()
        error = SolverError("injected primary failure")
        via_solve = FallbackBackend(_BoomPrimary(), ScipyTrustConstrBackend())
        via_absorb = FallbackBackend(_BoomPrimary(), ScipyTrustConstrBackend())
        with telemetry_session() as reg_solve:
            res_solve = via_solve.solve(program, tol=1e-6)
        with telemetry_session() as reg_absorb:
            res_absorb = via_absorb.absorb_primary_failure(
                program, tol=1e-6, error=error
            )
        assert np.array_equal(res_solve.x, res_absorb.x)
        assert res_solve.primary_error == res_absorb.primary_error
        assert (
            reg_solve.snapshot()["counters"]["solver.fallbacks"]
            == reg_absorb.snapshot()["counters"]["solver.fallbacks"]
            == 1
        )
        assert (
            via_solve._consecutive_failures
            == via_absorb._consecutive_failures
            == 1
        )

    def test_absorbed_failures_open_the_circuit(self):
        backend = FallbackBackend(
            _BoomPrimary(), ScipyTrustConstrBackend(), failure_threshold=2
        )
        program = self._program()
        error = SolverError("injected primary failure")
        with telemetry_session() as registry:
            backend.absorb_primary_failure(program, tol=1e-6, error=error)
            assert not backend.circuit_open
            backend.absorb_primary_failure(program, tol=1e-6, error=error)
        assert backend.circuit_open
        counters = registry.snapshot()["counters"]
        assert counters["solver.circuit_breaker.opened"] == 1

    def test_absorb_primary_success_closes_the_breaker(self):
        backend = FallbackBackend(_BoomPrimary(), ScipyTrustConstrBackend())
        program = self._program()
        error = SolverError("injected primary failure")
        with telemetry_session():
            backend.absorb_primary_failure(program, tol=1e-6, error=error)
            result = InteriorPointBackend().solve(program, tol=1e-6)
        assert backend._consecutive_failures == 1
        assert backend.absorb_primary_success(result) is result
        assert backend._consecutive_failures == 0


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
