"""Lane independence of the one primal-dual kernel.

:class:`InteriorPointBackend` solves a program as a one-lane lockstep
solve; :func:`solve_batch` stacks many programs into the same kernel. The
contract is not "numerically close": a lane's floats — solution,
objective, iteration count, duals, partial flag, failure — must not depend
on its batch-mates or on when finished lanes are compacted away, so every
instance of a batch matches its solve alone bit for bit. The cases cover
single-instance and mixed-shape batches, failing lanes (a slot with no
strict interior), budget-truncated lanes next to unbudgeted ones, a
lane that stops unconverged, and the shapes the service solves (fig2's
15 clouds x 24 users, the city cohorts' 4 lanes x 30 columns, 16-lane
stacks, user counts that are not a multiple of 8).
They pin the reduction-order analysis in the kernel's module docstring.
"""

import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.subproblem import RegularizedSubproblem
from repro.solvers.base import SolveBudget
from repro.solvers.batched import BatchCoordinator, DeferringBackend, solve_batch
from repro.solvers.interior_point import InteriorPointBackend
from repro.telemetry import MetricsRegistry, profiling_session, telemetry_session
from repro.telemetry.sinks import RingSink
from tests.conftest import make_tiny_instance


def random_subproblem(
    seed: int,
    num_clouds: int,
    num_users: int,
    *,
    eps_vector: bool = False,
    zero_prev: bool = False,
) -> RegularizedSubproblem:
    rng = np.random.default_rng(seed)
    workloads = rng.integers(1, 6, size=num_users).astype(float)
    capacities = workloads.sum() * (0.3 + rng.dirichlet(np.ones(num_clouds)))
    capacities *= 1.4 * workloads.sum() / capacities.sum()
    if zero_prev:
        x_prev = np.zeros((num_clouds, num_users))
    else:
        x_prev = rng.uniform(0.0, 1.0, size=(num_clouds, num_users))
        x_prev *= workloads[None, :] / num_clouds
    eps2 = rng.uniform(0.3, 2.0, size=num_users) if eps_vector else 0.7
    return RegularizedSubproblem(
        static_prices=rng.uniform(0.05, 2.0, size=(num_clouds, num_users)),
        reconfig_prices=rng.uniform(0.1, 2.0, size=num_clouds),
        migration_prices=rng.uniform(0.1, 2.0, size=num_clouds),
        capacities=capacities,
        workloads=workloads,
        x_prev=x_prev,
        eps1=0.5,
        eps2=eps2,
    )


def starved(sub: RegularizedSubproblem) -> RegularizedSubproblem:
    """``sub`` with 1e-3 of its capacity: a slot with no strict interior."""
    return RegularizedSubproblem(
        static_prices=sub.static_prices,
        reconfig_prices=sub.reconfig_prices,
        migration_prices=sub.migration_prices,
        capacities=np.asarray(sub.capacities) * 1e-3,
        workloads=sub.workloads,
        x_prev=sub.x_prev,
        eps1=sub.eps1,
        eps2=sub.eps2,
    )


def assert_identical(batched, sequential):
    assert np.array_equal(batched.x, sequential.x)
    assert batched.objective == sequential.objective
    assert batched.iterations == sequential.iterations
    assert batched.backend == sequential.backend
    assert batched.partial == sequential.partial
    assert set(batched.duals) == set(sequential.duals)
    for key, value in sequential.duals.items():
        assert np.array_equal(batched.duals[key], value), key


def solve_both(programs, *, tol=1e-8):
    sequential = []
    backend = InteriorPointBackend()
    for program in programs:
        try:
            sequential.append(backend.solve(program, tol=tol))
        except Exception as exc:  # noqa: BLE001 - failure parity is tested
            sequential.append(exc)
    batched = solve_batch(programs, tol=tol)
    assert len(batched) == len(sequential)
    for got, want in zip(batched, sequential):
        if isinstance(want, Exception):
            assert isinstance(got, type(want))
            assert str(got) == str(want)
        else:
            assert_identical(got, want)
    return batched


class TestBitIdentity:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        num_clouds=st.integers(min_value=2, max_value=4),
        num_users=st.integers(min_value=2, max_value=5),
        batch=st.integers(min_value=1, max_value=4),
        eps_vector=st.booleans(),
    )
    @settings(max_examples=15, deadline=None)
    def test_same_shape_batches(self, seed, num_clouds, num_users, batch, eps_vector):
        programs = [
            random_subproblem(
                seed + k, num_clouds, num_users, eps_vector=eps_vector
            ).build_program()
            for k in range(batch)
        ]
        solve_both(programs)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=8, deadline=None)
    def test_mixed_shape_batches(self, seed):
        shapes = [(2, 3), (3, 4), (2, 3), (4, 2), (3, 4)]
        programs = [
            random_subproblem(seed + k, clouds, users).build_program()
            for k, (clouds, users) in enumerate(shapes)
        ]
        solve_both(programs)

    def test_single_instance_batch(self):
        program = random_subproblem(3, 3, 4).build_program()
        solve_both([program])

    def test_zero_previous_allocation(self):
        programs = [
            random_subproblem(k, 3, 4, zero_prev=True).build_program()
            for k in range(3)
        ]
        solve_both(programs)

    @given(
        seed=st.integers(min_value=0, max_value=5_000),
        max_iterations=st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=10, deadline=None)
    def test_budget_truncated_solves(self, seed, max_iterations):
        # Iteration budgets are exact per lane, so truncated (partial)
        # solves must be bit-identical too; mix budgeted and unbudgeted
        # lanes in one batch to prove masks keep them independent.
        programs = []
        for k in range(3):
            program = random_subproblem(seed + k, 3, 4).build_program()
            if k != 1:
                program.budget = SolveBudget(max_iterations=max_iterations)
            programs.append(program)
        results = solve_both(programs)
        if max_iterations <= 5:
            # Below the 6-11 steps these programs need, so something truncates.
            assert any(r.partial for r in results if not isinstance(r, Exception))

    def test_unconverged_lane_leaves_its_neighbours_bit_identical(self):
        # With every dynamic price zero the entropy terms vanish, and this
        # slot's slacks reach float64 rounding before the gap target: the
        # lane stops unconverged, as a partial result, mid-batch.
        instance = make_tiny_instance(dynamic_prices=False)
        shape = (instance.num_clouds, instance.num_users)
        stalled = RegularizedSubproblem.from_instance(
            instance, 0, np.zeros(shape), eps1=1.0, eps2=1.0
        ).build_program()
        neighbours = [random_subproblem(k, *shape).build_program() for k in range(3)]
        neighbours.append(random_subproblem(9, 2, 3).build_program())
        alone = solve_batch(neighbours)
        with telemetry_session() as registry:
            outcomes = solve_both([neighbours[0], stalled, *neighbours[1:]])
        assert outcomes[1].partial
        assert not any(result.partial for result in alone)
        for got, want in zip([outcomes[0], *outcomes[2:]], alone):
            assert_identical(got, want)
        # Counted once per solve path (sequential and stacked), never as a
        # fired budget.
        assert registry.counter("solver.ipm.unconverged").value == 2
        assert registry.counter("solver.ipm.budget_exhausted").value == 0

    def test_structureless_program_fails_like_sequential(self):
        # Every program now carries P2 structure, so the one lane that cannot
        # start is a slot with no strict interior. Here it fills its shape
        # group alone: the group fails at setup without a solve, and the
        # other shape's lane matches its solve alone bit for bit.
        bad = starved(random_subproblem(4, 3, 4)).build_program()
        good = random_subproblem(1, 2, 3).build_program()
        outcomes = solve_batch([bad, good])
        assert isinstance(outcomes[0], ValueError)
        assert "total capacity" in str(outcomes[0])
        assert not isinstance(outcomes[1], Exception)
        sequential = InteriorPointBackend().solve(good, tol=1e-8)
        assert_identical(outcomes[1], sequential)

    def test_infeasible_subproblem_fails_like_sequential(self):
        # The starved lane fails alone, with the error its one-lane solve
        # raises, and its neighbours on either side are unaffected.
        sub = random_subproblem(2, 3, 4)
        outcomes = solve_both(
            [
                sub.build_program(),
                starved(sub).build_program(),
                random_subproblem(3, 3, 4).build_program(),
            ]
        )
        assert isinstance(outcomes[1], ValueError)
        assert "total capacity" in str(outcomes[1])
        assert not isinstance(outcomes[0], Exception)
        assert not isinstance(outcomes[2], Exception)


class TestServingShapes:
    """Bit identity at the shapes the service and the sweep solve.

    The Schur contractions are stacked matmuls: BLAS runs once per lane
    on that lane's matrices, so a lane's floats must not depend on where
    in the stack it sits or on how the stack's memory is laid out after
    compaction.
    """

    def test_fig2_slot_alone(self):
        solve_both([random_subproblem(11, 15, 24).build_program()])

    def test_city_cohort_lanes(self):
        programs = [
            random_subproblem(20 + k, 15, 30, eps_vector=True).build_program()
            for k in range(4)
        ]
        solve_both(programs)

    def test_sixteen_lanes(self):
        programs = [
            random_subproblem(40 + k, 15, 24).build_program() for k in range(16)
        ]
        solve_both(programs)

    @pytest.mark.parametrize("num_users", [13, 37])
    def test_user_counts_off_the_simd_width(self, num_users):
        programs = [
            random_subproblem(60 + k, 15, num_users).build_program()
            for k in range(3)
        ]
        solve_both(programs)

    @pytest.mark.parametrize("budget", [None, 3])
    def test_reported_objective_is_p2_at_the_point_to_rounding(self, budget):
        # The kernel reports its own stacked objective, whose sums are
        # per-lane dot products: RegularizedSubproblem.objective at the
        # returned x to rounding, not bit for bit.
        subs = [random_subproblem(90 + k, 15, 24) for k in range(3)]
        programs = [sub.build_program() for sub in subs]
        for program in programs:
            if budget is not None:
                program.budget = SolveBudget(max_iterations=budget)
        for sub, result in zip(subs, solve_batch(programs)):
            assert result.partial == (budget is not None)
            assert result.objective == pytest.approx(
                sub.objective(result.x), rel=1e-13, abs=1e-13
            )

    def test_truncated_lane_compacted_away_mid_solve(self):
        # The middle lane's budget retires it after 3 steps; the stack is
        # then compacted by fancy indexing and its neighbours keep going.
        programs = [
            random_subproblem(80 + k, 15, 24).build_program() for k in range(3)
        ]
        programs[1].budget = SolveBudget(max_iterations=3)
        results = solve_both(programs)
        assert results[1].partial and results[1].iterations == 3
        assert min(results[0].iterations, results[2].iterations) > 3
        assert not results[0].partial and not results[2].partial


class TestTelemetryParity:
    def test_solver_counters_match_sequential(self):
        programs = [random_subproblem(k, 3, 4).build_program() for k in range(4)]
        with telemetry_session() as sequential_registry:
            backend = InteriorPointBackend()
            for program in programs:
                backend.solve(program, tol=1e-8)
        with telemetry_session() as batched_registry:
            solve_batch(programs, tol=1e-8)
        seq = sequential_registry.snapshot()
        bat = batched_registry.snapshot()
        for name in ("solver.ipm.solves", "solver.iterations"):
            assert bat["counters"].get(name) == seq["counters"].get(name), name
        assert (
            bat["histograms"]["solver.ipm.iterations"]
            == seq["histograms"]["solver.ipm.iterations"]
        )
        seq_traces = [e for e in seq["events"] if e["type"] == "solver.ipm.trace"]
        bat_traces = [e for e in bat["events"] if e["type"] == "solver.ipm.trace"]
        assert [t["trace"] for t in bat_traces] == [t["trace"] for t in seq_traces]
        assert bat["counters"]["solver.batched.instances"] == 4

    def test_trace_is_built_only_where_events_land(self):
        # A registry that keeps no events and streams none would drop the
        # solver.ipm.trace event, so its lanes skip the per-step entries;
        # the counters and the result are unchanged.
        program = random_subproblem(5, 3, 4).build_program()
        sink = RingSink()
        registries = [
            MetricsRegistry(max_events=0),
            MetricsRegistry(sink=sink, max_events=0),
        ]
        dropped, streamed = (
            solve_batch([program], registries=[registry])[0] for registry in registries
        )
        assert_identical(dropped, streamed)
        for registry in registries:
            assert registry.counter("solver.ipm.solves").value == 1
        (event,) = [r for r in sink.records if r["type"] == "solver.ipm.trace"]
        assert len(event["trace"]) == streamed.iterations

    def test_per_instance_registries(self):
        programs = [random_subproblem(k, 2, 3).build_program() for k in range(2)]
        registries = [MetricsRegistry(), MetricsRegistry()]
        solve_batch(programs, registries=registries)
        for registry in registries:
            snap = registry.snapshot()
            assert snap["counters"]["solver.ipm.solves"] == 1


class TestPhaseTimers:
    PHASES = (
        "ipm.setup",
        "ipm.assemble",
        "ipm.factorize_smw",
        "ipm.convergence_check",
        "ipm.line_search",
        "ipm.finish",
    )

    def test_one_lane_solve_credits_every_phase(self):
        programs = [random_subproblem(k, 15, 24).build_program() for k in range(20)]
        backend = InteriorPointBackend()
        with profiling_session(hz=0.0, emit=False) as handle:
            started = time.perf_counter()
            for program in programs:
                backend.solve(program, tol=1e-8)
            wall_ms = (time.perf_counter() - started) * 1000.0
        for name in self.PHASES:
            assert handle.phase_folded.get(name, 0.0) > 0.0, name
        # The phases tile the solve and never overlap. What they leave out
        # (the timers' own bookkeeping, the lane set-up and telemetry around
        # the kernel loop) is measured in docs/OBSERVABILITY.md §12, not
        # bounded here: a line tracer such as coverage slows exactly those
        # pure-Python lines.
        phases_ms = sum(
            ms for name, ms in handle.phase_folded.items() if name.startswith("ipm.")
        )
        assert 0.0 < phases_ms <= wall_ms

    def test_stacked_solve_credits_every_phase(self):
        programs = [random_subproblem(k, 3, 4).build_program() for k in range(3)]
        with profiling_session(hz=0.0, emit=False) as handle:
            solve_batch(programs, tol=1e-8)
        for name in self.PHASES:
            assert handle.phase_folded.get(name, 0.0) > 0.0, name


class TestCoordinator:
    def test_threads_get_sequential_results(self):
        programs = [random_subproblem(k, 3, 4).build_program() for k in range(5)]
        backend = InteriorPointBackend()
        expected = [backend.solve(p, tol=1e-8) for p in programs]

        coordinator = BatchCoordinator(total=len(programs))
        deferring = DeferringBackend(coordinator)
        outcomes: list = [None] * len(programs)

        def worker(index):
            try:
                outcomes[index] = deferring.solve(programs[index], tol=1e-8)
            finally:
                coordinator.finish()

        threads = [
            threading.Thread(target=worker, args=(k,))
            for k in range(len(programs))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        for got, want in zip(outcomes, expected):
            assert_identical(got, want)

    def test_failed_solve_raises_in_requesting_thread(self):
        bad = starved(random_subproblem(2, 3, 4)).build_program()
        coordinator = BatchCoordinator(total=1)
        deferring = DeferringBackend(coordinator)
        with pytest.raises(ValueError, match="total capacity"):
            deferring.solve(bad, tol=1e-8)

