"""Named benchmark suites over the repo's experiment drivers.

Each suite wraps existing benchmark workloads (the ``benchmarks/`` pytest
suite's fig2/fig5/parallel measurements) into a plain function
that runs at an :class:`~repro.experiments.settings.ExperimentScale` and
returns a :class:`~repro.bench.records.BenchRecord`. Suites run inside
their own telemetry session, so solver traces and unconverged-solve
counts land in the record's ``diagnostics`` block without touching any caller state.

Wall-clock metrics (``kind="time"``) vary with hardware; the iteration
and cost metrics (``kind="count"``/``"cost"``) are deterministic at a
fixed scale, which is what lets CI gate on them with tight tolerances
while treating time as advisory (see :mod:`repro.bench.compare`).
"""

from __future__ import annotations

import contextlib
import time
from typing import Callable

from ..core.costs import total_cost
from ..core.regularization import OnlineRegularizedAllocator
from ..diagnostics import (
    competitive_ratio_trace,
    record_ratio_trace,
    summarize_convergence,
    worst_certificate,
)
from ..experiments.fig2 import fig2_scenario, run_fig2
from ..experiments.fig5 import run_fig5
from ..experiments.runner import run_ratio_sweep
from ..experiments.settings import ExperimentScale, all_paper_algorithms
from ..telemetry import MetricsRegistry, telemetry_session
from .records import BenchMetric, BenchRecord, current_git_commit

#: Hour cases used by the sweep-based suites (a subset keeps them fast).
SUITE_HOURS = ("3pm", "4pm")
#: The service suite's anytime curve covers iteration budgets 1..this.
ANYTIME_BUDGETS = 10
#: The aggregate suite times each slot as the fastest of this many fresh
#: controllers: one ~10 ms run is at the mercy of the scheduler.
WALL_REPEATS = 3


def _time_metric(seconds: float) -> BenchMetric:
    return BenchMetric(value=seconds, unit="s", kind="time")


def _count_metric(value: float, unit: str = "iterations") -> BenchMetric:
    return BenchMetric(value=float(value), unit=unit, kind="count")


def _cost_metric(value: float, unit: str = "cost") -> BenchMetric:
    return BenchMetric(value=float(value), unit=unit, kind="cost")


def _registry_diagnostics(registry: MetricsRegistry) -> dict:
    """Solver-health summary harvested from a suite's telemetry session."""
    convergence = summarize_convergence(registry)
    return {
        "convergence": convergence.as_dict(),
        "unconverged": registry.counter("solver.ipm.unconverged").value,
    }


def _suite_smoke(scale: ExperimentScale, registry: MetricsRegistry) -> dict:
    """One certified online run on the fig2 scenario.

    The fastest end-to-end measurement that still exercises the whole
    spine: scenario build, streaming controller, IPM solves, certificate
    and ratio diagnostics, cost accounting.
    """
    instance = fig2_scenario(scale).build(seed=scale.seed)
    algorithm = OnlineRegularizedAllocator(
        eps1=scale.eps, eps2=scale.eps, certify=True
    )
    start = time.perf_counter()
    schedule = algorithm.run(instance)
    wall_s = time.perf_counter() - start
    cost = total_cost(schedule, instance)
    trace = competitive_ratio_trace(
        instance,
        schedule,
        eps1=scale.eps,
        eps2=scale.eps,
        every=max(1, scale.num_slots // 4),
    )
    record_ratio_trace(trace, registry)
    worst = worst_certificate(algorithm.last_certificates)
    metrics = {
        "online_run_wall_s": _time_metric(wall_s),
        "solver_iterations": _count_metric(algorithm.total_solver_iterations),
        "solves": _count_metric(len(algorithm.last_solves), unit="solves"),
        "online_cost": _cost_metric(cost),
        "final_ratio": _cost_metric(trace.final_ratio, unit="ratio"),
        "worst_relative_gap": _cost_metric(
            worst.relative_gap if worst else 0.0, unit="gap"
        ),
        "worst_solver_relative_gap": _cost_metric(
            max(
                (c.solver_gap or 0.0 for c in algorithm.last_certificates),
                default=0.0,
            ),
            unit="gap",
        ),
    }
    diagnostics = {
        "ratio_bound": trace.bound,
        "ratio_certified": trace.certified,
        "worst_prefix_ratio": trace.worst_ratio,
        "certificates_ok": all(c.ok() for c in algorithm.last_certificates),
        "worst_kkt_residual": max(
            (c.kkt_residual for c in algorithm.last_certificates), default=0.0
        ),
    }
    return {"metrics": metrics, "diagnostics": diagnostics}


def _suite_solver(scale: ExperimentScale, registry: MetricsRegistry) -> dict:
    """Solver-focused measurements: one online run on the fig2 instance.

    One interior-point run of the online allocator; ``iterations`` and
    ``newton_per_solve`` record the kernel's steps in total and per P2
    solve.
    """
    fig2_instance = fig2_scenario(scale).build(seed=scale.seed)
    algorithm = OnlineRegularizedAllocator(eps1=scale.eps, eps2=scale.eps)
    schedule = algorithm.run(fig2_instance)
    iterations = algorithm.total_solver_iterations
    metrics = {
        "iterations": _count_metric(iterations),
        "newton_per_solve": _count_metric(
            iterations / max(1, len(algorithm.last_solves))
        ),
        "online_cost": _cost_metric(total_cost(schedule, fig2_instance)),
    }
    return {"metrics": metrics, "diagnostics": {}}


def _suite_fig2(scale: ExperimentScale, registry: MetricsRegistry) -> dict:
    """The Figure 2 ratio sweep (subset of hours) as a benchmark."""
    start = time.perf_counter()
    points = run_fig2(scale, hours=SUITE_HOURS)
    wall_s = time.perf_counter() - start
    approx = [p.mean_ratio("online-approx") for p in points]
    greedy = [p.mean_ratio("online-greedy") for p in points]
    metrics = {
        "sweep_wall_s": _time_metric(wall_s),
        "mean_ratio_online_approx": _cost_metric(
            sum(approx) / len(approx), unit="ratio"
        ),
        "mean_ratio_online_greedy": _cost_metric(
            sum(greedy) / len(greedy), unit="ratio"
        ),
        "worst_ratio_online_approx": _cost_metric(max(approx), unit="ratio"),
    }
    return {"metrics": metrics, "diagnostics": {"hours": list(SUITE_HOURS)}}


def _suite_fig5(scale: ExperimentScale, registry: MetricsRegistry) -> dict:
    """The Figure 5 random-walk sweep (two user counts) as a benchmark."""
    user_counts = (max(scale.num_users // 2, 4), scale.num_users)
    start = time.perf_counter()
    points = run_fig5(scale, user_counts=user_counts)
    wall_s = time.perf_counter() - start
    approx = [p.mean_ratio("online-approx") for p in points]
    metrics = {
        "sweep_wall_s": _time_metric(wall_s),
        "mean_ratio_online_approx": _cost_metric(
            sum(approx) / len(approx), unit="ratio"
        ),
        "worst_ratio_online_approx": _cost_metric(max(approx), unit="ratio"),
    }
    return {
        "metrics": metrics,
        "diagnostics": {"user_counts": list(user_counts)},
    }


def _suite_parallel(scale: ExperimentScale, registry: MetricsRegistry) -> dict:
    """Serial vs process-pool sweep execution (fig2-style grid).

    The determinism invariant (identical ratios at any worker count) is
    recorded in ``diagnostics`` — a ``False`` there is a correctness bug,
    not a performance regression.
    """
    scenario = fig2_scenario(scale)
    algorithms = all_paper_algorithms(scale.eps)
    cases = [
        (hour, scenario, algorithms, scale.seed + 1000 * case)
        for case, hour in enumerate(SUITE_HOURS)
    ]
    start = time.perf_counter()
    serial = run_ratio_sweep(cases, repetitions=scale.repetitions, workers=1)
    serial_s = time.perf_counter() - start
    start = time.perf_counter()
    pooled = run_ratio_sweep(cases, repetitions=scale.repetitions, workers=4)
    pooled_s = time.perf_counter() - start
    deterministic = all(
        ser.label == par.label and ser.stats == par.stats
        for ser, par in zip(serial, pooled)
    )
    metrics = {
        "serial_wall_s": _time_metric(serial_s),
        "pooled_wall_s": _time_metric(pooled_s),
        "grid_cells": _count_metric(
            len(cases) * scale.repetitions, unit="cells"
        ),
    }
    diagnostics = {
        "speedup": serial_s / pooled_s if pooled_s > 0 else 0.0,
        "pool_matches_serial": deterministic,
    }
    return {"metrics": metrics, "diagnostics": diagnostics}


def _city_slot(num_users: int, seed: int):
    """One synthetic city-scale (system, observation) pair.

    The fig2 generators at an arbitrary user count: Rome metro topology,
    power-law workloads, uniform random attachment, frequency-provisioned
    capacities — but a single slot, which is all the aggregation suite
    measures (the layer is stateless across counts here).
    """
    import numpy as np

    from ..core.problem import CostWeights
    from ..pricing.bandwidth import isp_migration_prices
    from ..pricing.capacity import provision_capacities
    from ..pricing.operation import gaussian_operation_prices
    from ..pricing.reconfiguration import gaussian_reconfiguration_prices
    from ..simulation.observations import SlotObservation, SystemDescription
    from ..topology.delays import inter_cloud_delay_matrix
    from ..topology.metro import rome_metro_topology
    from ..workload.distributions import make_workloads

    topology = rome_metro_topology()
    num_clouds = topology.num_sites
    rng = np.random.default_rng(seed)
    workloads = make_workloads("power", num_users, rng)
    attachment = rng.integers(0, num_clouds, size=num_users)
    capacities = provision_capacities(workloads, attachment[None, :], num_clouds)
    system = SystemDescription(
        workloads=workloads,
        capacities=capacities,
        reconfig_prices=gaussian_reconfiguration_prices(num_clouds, rng),
        migration_prices=isp_migration_prices(num_clouds, rng=rng),
        inter_cloud_delay=inter_cloud_delay_matrix(topology, price_per_km=2.0),
        weights=CostWeights(),
    )
    observation = SlotObservation(
        slot=0,
        op_prices=gaussian_operation_prices(capacities, 1, rng)[0],
        attachment=attachment,
        access_delay=np.zeros(num_users),
    )
    return system, observation


def _fastest_fresh_slot(make: Callable, observation):
    """``(controller, decision, wall_s, settle_s)`` over ``WALL_REPEATS`` slots.

    Each repeat observes ``observation`` on a fresh controller from
    ``make()`` and then settles it (a controller without ``settle`` has
    no deferred phase), so every run does the same work. ``wall_s`` is
    the fastest ``observe`` (the decision path) and ``settle_s`` the
    fastest ``settle``; the controller and the decision returned are the
    first run's. Later repeats record into a throwaway telemetry session,
    so the suite's counters see the first run only.
    """
    first = None
    fastest = fastest_settle = float("inf")
    for repeat in range(WALL_REPEATS):
        controller = make()
        settle = getattr(controller, "settle", None)
        with telemetry_session() if repeat else contextlib.nullcontext():
            start = time.perf_counter()
            decision = controller.observe(observation)
            observed = time.perf_counter()
            if settle is not None:
                settle()
            settled = time.perf_counter()
        fastest = min(fastest, observed - start)
        fastest_settle = min(fastest_settle, settled - observed)
        if first is None:
            first = (controller, decision)
    return (*first, fastest, fastest_settle)


def _fastest_decode(system, observation) -> float:
    """Fastest of ``WALL_REPEATS`` wire decodes of ``observation``'s update.

    The line is encoded once, untimed; each repeat times the server's
    decode layer on it: ``parse_message`` and then ``parse_update``.
    """
    from ..service.protocol import (
        encode,
        observation_to_update,
        parse_message,
        parse_update,
    )

    line = encode(observation_to_update(observation))
    fastest = float("inf")
    for _ in range(WALL_REPEATS):
        start = time.perf_counter()
        parse_update(
            parse_message(line),
            expected_slot=observation.slot,
            num_clouds=system.num_clouds,
            num_users=system.num_users,
        )
        fastest = min(fastest, time.perf_counter() - start)
    return fastest


def _suite_aggregate(scale: ExperimentScale, registry: MetricsRegistry) -> dict:
    """City-scale aggregation: 10k/100k/1M-user slots vs a direct solve.

    For each user count, one :class:`repro.aggregate.AggregatedController`
    slot's decision path is timed (cohort build, sharded reduced solve, the
    factored proportional split) as ``agg_wall_s_*``, and its deferred
    phase (``settle``: the disaggregation error, skipped above
    ``ERROR_EVAL_LIMIT``, and its records) as ``agg_settle_s_*``. The
    slot's wire decode (its ``update`` line through ``parse_message`` and
    ``parse_update``) is timed as ``agg_decode_s_*``, also fastest of
    ``WALL_REPEATS``. A per-user solve at J=120 provides the wall-clock
    reference the 1M aggregated slot is compared against in
    ``diagnostics``. Cohort counts and reduction ratios are deterministic
    at a fixed seed, so CI gates on them; wall times stay advisory. Counts
    scale with ``scale.num_users`` so tests can run the suite small.
    """
    import numpy as np

    from ..aggregate import AggregatedController, AggregationConfig
    from ..experiments.settings import DEFAULT_NUM_USERS

    factor = scale.num_users / DEFAULT_NUM_USERS
    labelled_counts = [
        (label, max(30, int(n * factor)))
        for label, n in (("10k", 10_000), ("100k", 100_000), ("1m", 1_000_000))
    ]
    config = AggregationConfig(lambda_buckets=8, shards=4)
    metrics: dict[str, BenchMetric] = {}
    walls: dict[str, float] = {}
    worst_residual = 0.0
    reports = {}
    for label, num_users in labelled_counts:
        system, observation = _city_slot(num_users, scale.seed)
        controller, decision, walls[label], settle_s = _fastest_fresh_slot(
            lambda: AggregatedController(
                system=system,
                algorithm=OnlineRegularizedAllocator(eps1=scale.eps, eps2=scale.eps),
                config=config,
            ),
            observation,
        )
        x = np.asarray(decision)
        report = controller.last_reports[-1]
        reports[label] = report
        worst_residual = max(
            worst_residual,
            float((np.asarray(system.workloads) - x.sum(axis=0)).max()),
            float((x.sum(axis=1) - np.asarray(system.capacities)).max()),
            float((-x).max()),
        )
        metrics[f"agg_wall_s_{label}"] = _time_metric(walls[label])
        metrics[f"agg_settle_s_{label}"] = _time_metric(settle_s)
        metrics[f"agg_decode_s_{label}"] = _time_metric(
            _fastest_decode(system, observation)
        )
        metrics[f"cohorts_{label}"] = _count_metric(report.cohorts, unit="cohorts")
        metrics[f"reduction_{label}"] = _count_metric(
            report.reduction_ratio, unit="x"
        )

    # The per-user reference: one direct P2 solve at the paper-adjacent
    # J=120 (scaled with the suite so tiny test scales stay tiny).
    direct_users = max(6, int(120 * factor))
    system, observation = _city_slot(direct_users, scale.seed)
    _, _, direct_wall_s, _ = _fastest_fresh_slot(
        lambda: OnlineRegularizedAllocator(
            eps1=scale.eps, eps2=scale.eps
        ).as_controller(system),
        observation,
    )
    metrics["direct_wall_s_j120"] = _time_metric(direct_wall_s)
    metrics["feasibility_residual"] = _cost_metric(worst_residual, unit="residual")

    diagnostics = {
        "user_counts": {label: count for label, count in labelled_counts},
        "direct_users": direct_users,
        "shards": config.shards,
        "lambda_buckets": config.lambda_buckets,
        "wall_ratio_1m_vs_direct": walls["1m"] / max(direct_wall_s, 1e-9),
        "spread_1m": reports["1m"].spread,
        "error_bound_1m": reports["1m"].error_bound,
    }
    return {"metrics": metrics, "diagnostics": diagnostics}


def _suite_service(scale: ExperimentScale, registry: MetricsRegistry) -> dict:
    """The live service loop: fig2-scale replay through the TCP server.

    Replays of the same observation stream (as fast as possible, so
    latency percentiles measure the *service*, not the pacing):

    * **generous budget** (30 s deadline, never fires) — must match the
      unbudgeted batch run to solver precision with zero deadline misses;
      the gated invariant behind ``repro-edge loadgen --require-zero-misses
      --max-cost-delta 1e-9`` in CI's service-smoke job.
    * **anytime-quality curve** — one replay per iteration budget from 1
      to ``ANYTIME_BUDGETS``: the realized cost over the unbudgeted batch
      cost (``budget_cost_ratio_iNN``, gated as ``cost``) and the slots
      the budget truncated (``budget_partial_slots_iNN``, gated as
      ``count``), so "cheaper under a deadline" is a measured curve.

    Latency percentiles are wall-clock and therefore advisory, and so are
    ``deferred_p50_ms`` (a slot's deferred phase, after its reply) and
    ``cpu_p50_ms`` (server thread CPU over both phases of a slot).
    """
    from ..service import ServiceConfig, run_loadgen
    from ..simulation.observations import (
        SystemDescription,
        observations_from_instance,
    )

    instance = fig2_scenario(scale).build(seed=scale.seed)
    system = SystemDescription.from_instance(instance)
    observations = observations_from_instance(instance)

    generous = ServiceConfig(deadline_s=30.0, eps1=scale.eps, eps2=scale.eps)
    report = run_loadgen(system, observations, generous, speed=0)

    metrics = {
        "replay_wall_s": _time_metric(report.wall_s),
        "latency_p50_ms": BenchMetric(report.latency_p50_ms, "ms", "time"),
        "latency_p95_ms": BenchMetric(report.latency_p95_ms, "ms", "time"),
        "latency_p99_ms": BenchMetric(report.latency_p99_ms, "ms", "time"),
        "deferred_p50_ms": BenchMetric(report.deferred_p50_ms, "ms", "time"),
        "cpu_p50_ms": BenchMetric(report.cpu_p50_ms, "ms", "time"),
        "deadline_misses": _count_metric(report.deadline_misses, unit="misses"),
        "partial_slots": _count_metric(report.partial_slots, unit="slots"),
        "streamed_cost": _cost_metric(report.streamed_cost),
        "cost_delta_abs": _cost_metric(abs(report.cost_delta), unit="delta"),
    }
    for budget in range(1, ANYTIME_BUDGETS + 1):
        tight = ServiceConfig(max_iterations=budget, eps1=scale.eps, eps2=scale.eps)
        degraded = run_loadgen(
            system, observations, tight, speed=0, batch_reference=False
        )
        metrics[f"budget_cost_ratio_i{budget:02d}"] = _cost_metric(
            degraded.streamed_cost / max(report.batch_cost, 1e-9), unit="ratio"
        )
        metrics[f"budget_partial_slots_i{budget:02d}"] = _count_metric(
            degraded.partial_slots, unit="slots"
        )
    diagnostics = {"slots": report.slots, "batch_cost": report.batch_cost}
    return {"metrics": metrics, "diagnostics": diagnostics}


def _batch_subproblems(scale: ExperimentScale, count: int):
    """Deterministic P2 instances shaped like one sweep slot's solves."""
    import numpy as np

    from ..core.subproblem import RegularizedSubproblem

    rng = np.random.default_rng(scale.seed)
    num_clouds = 6
    num_users = scale.num_users
    subproblems = []
    for _ in range(count):
        workloads = rng.integers(1, 6, size=num_users).astype(float)
        capacities = workloads.sum() * (0.3 + rng.dirichlet(np.ones(num_clouds)))
        capacities *= 1.5 * workloads.sum() / capacities.sum()
        x_prev = rng.uniform(0.0, 1.0, size=(num_clouds, num_users))
        x_prev *= workloads[None, :] / num_clouds
        subproblems.append(
            RegularizedSubproblem(
                static_prices=rng.uniform(0.05, 2.0, size=(num_clouds, num_users)),
                reconfig_prices=rng.uniform(0.1, 2.0, size=num_clouds),
                migration_prices=rng.uniform(0.1, 2.0, size=num_clouds),
                capacities=capacities,
                workloads=workloads,
                x_prev=x_prev,
                eps1=scale.eps,
                eps2=scale.eps,
            )
        )
    return subproblems


def _suite_batched(scale: ExperimentScale, registry: MetricsRegistry) -> dict:
    """Batched P2 solves vs their serial twins.

    Two measurements (docs/PERFORMANCE.md reads from this record):

    * **stacked solve** — ``scale.num_slots`` same-shape P2 instances
      solved as a loop of one-lane :class:`InteriorPointBackend` solves
      (the "sequential" leg) and as one
      :func:`repro.solvers.batched.solve_batch` call. Both run the same
      kernel, so the wall ratio is the stacking win alone. Bit-identity
      is gated (``stack_bit_identical``); walls are advisory.
    * **batched sweep** — ``run_ratio_sweep`` with and without
      ``batch_solves=True`` on the fig2 grid; the stats must match
      exactly (``sweep_stats_match``).
    """
    import numpy as np

    from ..solvers.batched import solve_batch
    from ..solvers.interior_point import InteriorPointBackend

    # Stacked solve vs a loop of one-lane solves over the same programs.
    subproblems = _batch_subproblems(scale, max(4, scale.num_slots))
    backend = InteriorPointBackend()
    sequential = []
    start = time.perf_counter()
    for sub in subproblems:
        sequential.append(backend.solve(sub.build_program()))
    sequential_s = time.perf_counter() - start
    programs = [sub.build_program() for sub in subproblems]
    start = time.perf_counter()
    batched = solve_batch(programs)
    batched_s = time.perf_counter() - start
    identical = all(
        np.array_equal(seq.x, bat.x)
        and seq.objective == bat.objective
        and seq.iterations == bat.iterations
        for seq, bat in zip(sequential, batched)
    )

    # Sweep-level: the lockstep runner vs the plain serial sweep.
    scenario = fig2_scenario(scale)
    algorithms = all_paper_algorithms(scale.eps)
    cases = [
        (hour, scenario, algorithms, scale.seed + 1000 * case)
        for case, hour in enumerate(SUITE_HOURS)
    ]
    start = time.perf_counter()
    plain = run_ratio_sweep(cases, repetitions=scale.repetitions, workers=1)
    sweep_plain_s = time.perf_counter() - start
    start = time.perf_counter()
    lockstep = run_ratio_sweep(
        cases, repetitions=scale.repetitions, workers=1, batch_solves=True
    )
    sweep_batched_s = time.perf_counter() - start
    stats_match = all(
        ser.label == bat.label and ser.stats == bat.stats
        for ser, bat in zip(plain, lockstep)
    )

    metrics = {
        "stack_sequential_wall_s": _time_metric(sequential_s),
        "stack_batched_wall_s": _time_metric(batched_s),
        "stack_bit_identical": _count_metric(int(identical), unit="bool"),
        "stack_iterations": _count_metric(
            sum(r.iterations for r in batched)
        ),
        "sweep_plain_wall_s": _time_metric(sweep_plain_s),
        "sweep_batched_wall_s": _time_metric(sweep_batched_s),
        "sweep_stats_match": _count_metric(int(stats_match), unit="bool"),
    }
    diagnostics = {
        "stack_instances": len(subproblems),
        "stack_speedup": sequential_s / batched_s if batched_s > 0 else 0.0,
        "sweep_speedup": (
            sweep_plain_s / sweep_batched_s if sweep_batched_s > 0 else 0.0
        ),
        "batched_instances": registry.counter("solver.batched.instances").value,
    }
    return {"metrics": metrics, "diagnostics": diagnostics}


#: The suite registry: name -> implementation.
SUITES: dict[str, Callable[[ExperimentScale, MetricsRegistry], dict]] = {
    "smoke": _suite_smoke,
    "solver": _suite_solver,
    "fig2": _suite_fig2,
    "fig5": _suite_fig5,
    "parallel": _suite_parallel,
    "batched": _suite_batched,
    "aggregate": _suite_aggregate,
    "service": _suite_service,
}


def run_suite(
    name: str,
    scale: ExperimentScale | None = None,
    *,
    timestamp: float | None = None,
) -> BenchRecord:
    """Run one named suite and return its :class:`BenchRecord`.

    The suite executes inside a fresh telemetry session (nested sessions
    restore the caller's registry on exit), and the session's solver-health
    summary — convergence statistics and the unconverged-solve count —
    is folded into the record's diagnostics.
    """
    if name not in SUITES:
        known = ", ".join(sorted(SUITES))
        raise ValueError(f"unknown bench suite {name!r} (known: {known})")
    scale = scale or ExperimentScale()
    with telemetry_session() as registry:
        outcome = SUITES[name](scale, registry)
        solver_health = _registry_diagnostics(registry)
    return BenchRecord(
        suite=name,
        metrics=outcome["metrics"],
        config={
            "num_users": scale.num_users,
            "num_slots": scale.num_slots,
            "repetitions": scale.repetitions,
            "seed": scale.seed,
            "eps": scale.eps,
        },
        diagnostics={**outcome["diagnostics"], **solver_health},
        git_commit=current_git_commit(),
        created_unix=timestamp if timestamp is not None else time.time(),
    )
