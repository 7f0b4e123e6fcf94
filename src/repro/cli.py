"""Command-line entry point: regenerate any of the paper's figures.

Examples::

    repro-edge fig1
    repro-edge fig2 --users 24 --slots 24 --repetitions 3
    repro-edge fig4 --users 12 --slots 10
    repro-edge fig5 --user-counts 10 20 40 --stay-bias 3.0
    repro-edge quickstart
    repro-edge fig2 --telemetry run.jsonl --metrics-summary
    repro-edge threshold            # adversarial oscillating-price sweep
    repro-edge lookahead            # perfect-prediction ablation
    repro-edge certify              # eq. 12 chain + per-slot certificates
    repro-edge bench --suite smoke --out new.json --compare BENCH_smoke.json
    repro-edge doctor run.jsonl     # post-mortem of a recorded run
    repro-edge fig2 --telemetry run.jsonl --watchdog
    repro-edge watch run.jsonl --strict   # live dashboard (second terminal)
    repro-edge export run.jsonl --trace trace.json --openmetrics run.prom
    repro-edge serve --deadline-ms 250 --metrics-port 9464
    repro-edge loadgen --speed 4 --deadline-ms 250  # replay + latency report

Every command prints a paper-style ASCII table to stdout; see
EXPERIMENTS.md for how the output maps onto the paper's figures and
docs/DIAGNOSTICS.md for the bench/doctor workflow.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, NoReturn

if TYPE_CHECKING:
    from .experiments.scale import ExperimentScale


def _int_at_least(minimum: int):
    """An argparse ``type=`` that rejects integers below ``minimum``.

    Out-of-range values exit 2 with a usage message instead of being
    reinterpreted or failing later with a traceback.
    """

    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be at least {minimum}, got {value}"
            )
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


_positive_int = _int_at_least(1)
_non_negative_int = _int_at_least(0)


def _add_scale_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--users", type=_positive_int, default=None, help="number of users J"
    )
    parser.add_argument(
        "--slots", type=_positive_int, default=None, help="number of time slots T"
    )
    parser.add_argument(
        "--repetitions",
        type=_positive_int,
        default=None,
        help="seeded repetitions per point",
    )
    parser.add_argument("--seed", type=int, default=None, help="base random seed")
    parser.add_argument("--eps", type=float, default=None, help="eps1 = eps2 value")
    parser.add_argument(
        "--workers",
        type=_non_negative_int,
        default=None,
        help="processes for the sweep grid (default 1 = serial, 0 = all CPUs; "
        "results are identical at any worker count)",
    )
    parser.add_argument(
        "--aggregate",
        action="store_true",
        help="solve online-approx over (station, workload-bucket) cohorts "
        "instead of per-user columns and split the solution back "
        "(docs/SCALING.md); baselines are unaffected",
    )
    parser.add_argument(
        "--lambda-buckets",
        type=_non_negative_int,
        default=None,
        metavar="B",
        help="workload buckets per station for --aggregate (default 8; "
        "0 = bucket by exact workload value, zero aggregation error)",
    )
    parser.add_argument(
        "--batch-solves",
        action="store_true",
        help="stack concurrent cells' per-slot P2 solves into lockstep "
        "batched interior-point iterations (docs/PERFORMANCE.md); results are "
        "bit-identical to the sequential solves",
    )
    parser.add_argument(
        "--paper-scale",
        action="store_true",
        help="run at the paper's full scale (300 users, 60 slots, 5 repetitions)",
    )
    parser.add_argument(
        "--drop-schedules",
        action="store_true",
        help="free each slot's allocation right after cost accounting "
        "(ratios are unchanged; bounds memory on long horizons)",
    )
    parser.add_argument(
        "--telemetry",
        metavar="PATH",
        default=None,
        help="record metrics, spans, and per-slot cost events and stream "
        "them as a JSON-lines run manifest to PATH while the run goes "
        "(live-tailable with 'repro-edge watch'; events go to disk, not "
        "RAM; docs/OBSERVABILITY.md); results are bit-identical with or "
        "without",
    )
    parser.add_argument(
        "--watchdog",
        action="store_true",
        help="evaluate the default alert rules (solver stall, certificate "
        "gap, ratio over bound, deadline-miss storm) live "
        "over the telemetry stream; alerts land in the manifest as 'alert' "
        "events",
    )
    parser.add_argument(
        "--metrics-summary",
        action="store_true",
        help="print a metrics summary table (solver iterations, per-slot "
        "wall time, cost totals) after the report",
    )
    parser.add_argument(
        "--trace-context",
        action="store_true",
        help="run under a distributed-trace root: every span the run "
        "records — across worker processes and batched solver lanes — "
        "carries trace/span ids, so 'repro-edge export --trace' renders "
        "one connected tree (docs/OBSERVABILITY.md); implies telemetry, "
        "results are bit-identical",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="profile the run: deterministic per-phase solver timers plus "
        "a sampling profiler, folded-stack profiles land in the manifest "
        "as prof.* events ('repro-edge export --speedscope' renders "
        "them); implies telemetry, results are bit-identical",
    )
    parser.add_argument(
        "--profile-hz",
        type=float,
        default=None,
        metavar="HZ",
        help="sampling-profiler frequency for --profile (default: 19)",
    )
    parser.add_argument(
        "--flight",
        type=int,
        default=None,
        metavar="K",
        help="arm the incident flight recorder over the last K slots: an "
        "alert (rule or SLO) dumps the full solve input state as a "
        "deterministically replayable incident bundle ('repro-edge "
        "incident replay BUNDLE'); implies --watchdog, observes only — "
        "results are bit-identical (docs/OBSERVABILITY.md)",
    )
    parser.add_argument(
        "--incident-dir",
        default=None,
        metavar="DIR",
        help="directory --flight incident bundles are written into "
        "(default: keep the ring in memory only)",
    )
    parser.add_argument(
        "--slo",
        action="store_true",
        help="evaluate the default SLO objectives (latency p99, deadline-"
        "miss ratio, ratio-vs-bound) with fast/slow "
        "burn-rate windows, alongside the --watchdog rules it implies; "
        "transitions land in the manifest as 'slo.burn' events, firing "
        "objectives raise slo:<name> alerts, and the burn rates are "
        "slo.burn.fast.*/slo.burn.slow.* gauges (serve/loadgen included)",
    )


def _scale_from_args(args: argparse.Namespace) -> ExperimentScale:
    from .experiments.scale import ExperimentScale

    scale = ExperimentScale.paper() if args.paper_scale else ExperimentScale()
    overrides = {}
    if args.users is not None:
        overrides["num_users"] = args.users
    if args.slots is not None:
        overrides["num_slots"] = args.slots
    if args.repetitions is not None:
        overrides["repetitions"] = args.repetitions
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.eps is not None:
        overrides["eps"] = args.eps
    if args.workers is not None:
        # 0 = all CPUs, which ExperimentScale spells as None.
        overrides["workers"] = args.workers or None
    if args.drop_schedules:
        overrides["keep_schedules"] = False
    if getattr(args, "aggregate", False):
        overrides["aggregate"] = True
    if getattr(args, "lambda_buckets", None) is not None:
        # 0 = exact-value buckets, which AggregationConfig spells as None.
        overrides["lambda_buckets"] = args.lambda_buckets or None
        overrides["aggregate"] = True
    if getattr(args, "batch_solves", False):
        overrides["batch_solves"] = True
    if overrides:
        scale = ExperimentScale(**{**scale.__dict__, **overrides})
    return scale


def _cmd_fig1(_args: argparse.Namespace) -> str:
    from .experiments.fig1 import run_fig1

    lines = ["Figure 1 - greedy vs optimal on the Section II-E examples", ""]
    for name, result in run_fig1().items():
        lines.append(
            f"example ({name}): greedy {'-'.join(result.greedy_placements)} "
            f"cost {result.greedy_cost:.1f} | optimal "
            f"{'-'.join(result.optimal_placements)} cost {result.optimal_cost:.1f}"
        )
    return "\n".join(lines)


def _cmd_fig2(args: argparse.Namespace) -> str:
    from .experiments.fig2 import fig2_report, run_fig2

    return fig2_report(run_fig2(_scale_from_args(args)))


def _cmd_fig3(args: argparse.Namespace) -> str:
    from .experiments.fig3 import fig3_report, run_fig3

    return fig3_report(run_fig3(_scale_from_args(args)))


def _cmd_fig4(args: argparse.Namespace) -> str:
    from .experiments.fig4 import (
        fig4_report,
        run_eps_sweep,
        run_mu_sweep,
        theoretical_bounds,
    )

    scale = _scale_from_args(args)
    eps_points = run_eps_sweep(scale)
    mu_points = run_mu_sweep(scale)
    bounds = theoretical_bounds(scale)
    return fig4_report(eps_points, mu_points, bounds)


def _cmd_fig5(args: argparse.Namespace) -> str:
    from .experiments.fig5 import fig5_report, run_fig5

    scale = _scale_from_args(args)
    return fig5_report(
        run_fig5(
            scale,
            user_counts=tuple(args.user_counts),
            stay_bias=args.stay_bias,
        )
    )


def _cmd_threshold(args: argparse.Namespace) -> str:
    from .experiments.adversarial import run_threshold_sweep
    from .experiments.report import format_table

    scale = _scale_from_args(args)
    sweep = run_threshold_sweep(num_slots=2 * scale.num_slots)
    rows = [
        [f"A={amplitude:g}", ratios["online-greedy"], ratios["online-approx"]]
        for amplitude, ratios in sweep.items()
    ]
    return "\n".join(
        [
            "Adversarial oscillating prices (move cost b+c = 2; trap: 2 < A < 4)",
            format_table(["amplitude", "online-greedy", "online-approx"], rows),
        ]
    )


def _cmd_lookahead(args: argparse.Namespace) -> str:
    # Deferred import: pulls in the LP machinery.
    from .baselines import OfflineOptimal, RecedingHorizon
    from .core.costs import total_cost
    from .core.regularization import OnlineRegularizedAllocator
    from .experiments.report import format_table
    from .simulation.scenario import Scenario

    scale = _scale_from_args(args)
    instance = Scenario(
        num_users=scale.num_users, num_slots=scale.num_slots
    ).build(seed=scale.seed)
    offline = total_cost(OfflineOptimal().run(instance), instance)
    rows = []
    for window in sorted({1, 2, 3, scale.num_slots}):
        cost = total_cost(RecedingHorizon(window=window).run(instance), instance)
        rows.append([f"lookahead-{window}", cost / offline])
    approx = total_cost(OnlineRegularizedAllocator().run(instance), instance)
    rows.append(["online-approx (no prediction)", approx / offline])
    return "\n".join(
        [
            "Perfect-prediction ablation (ratio vs offline-opt)",
            format_table(["algorithm", "ratio"], rows),
        ]
    )


def _cmd_certify(args: argparse.Namespace) -> str:
    # Deferred import: pulls in the LP machinery.
    from .core.duality import duality_certificate
    from .core.regularization import OnlineRegularizedAllocator
    from .diagnostics import (
        competitive_ratio_trace,
        record_ratio_trace,
        worst_certificate,
    )
    from .simulation.scenario import Scenario

    scale = _scale_from_args(args)
    instance = Scenario(
        num_users=scale.num_users, num_slots=scale.num_slots
    ).build(seed=scale.seed)
    algorithm = OnlineRegularizedAllocator(
        eps1=scale.eps, eps2=scale.eps, certify=True
    )
    schedule = algorithm.run(instance)
    certificate = duality_certificate(instance, schedule)
    lines = [
        "Duality certificate (paper eq. 12: P1 >= P3 >= D)",
        f"  P1(online-approx) : {certificate.p1:12.3f}",
        f"  P3* (relaxed LP)  : {certificate.p3:12.3f}",
        f"  D*  (dual LP)     : {certificate.dual:12.3f}",
        f"  chain holds       : {certificate.chain_holds}",
        f"  certified ratio   : {certificate.p1 / certificate.dual:.3f}"
        "  (upper bound on the empirical competitive ratio,"
        " no offline solve needed)",
    ]
    certificates = algorithm.last_certificates
    worst = worst_certificate(certificates)
    if worst is not None:
        lines += [
            "",
            "Per-slot P2 optimality certificates (KKT + duality-gap bound)",
            f"  slots certified   : {len(certificates)}",
            "  worst KKT residual: "
            f"{max(c.kkt_residual for c in certificates):.3e}",
            f"  worst relative gap: {worst.relative_gap:.3e}"
            f"  (slot {worst.slot}, multipliers: {worst.source})",
            f"  all within 1e-6   : {all(c.ok() for c in certificates)}",
        ]
    trace = competitive_ratio_trace(
        instance, schedule, eps1=scale.eps, eps2=scale.eps
    )
    # stream=True feeds per-prefix diag.ratio.point events to any attached
    # sink, so `repro-edge watch` and the RatioBoundRule see the ratio live.
    record_ratio_trace(trace, stream=True)
    lines += [
        "",
        "Empirical competitive ratio vs Theorem 2 (per-prefix)",
        f"  bound 1+gamma|I|  : {trace.bound:12.3f}",
        f"  final ratio       : {trace.final_ratio:12.3f}",
        f"  worst prefix ratio: {trace.worst_ratio:12.3f}",
        f"  violating prefixes: {len(trace.violations()):12d}",
        f"  certified         : {trace.certified}",
    ]
    return "\n".join(lines)


def _cmd_bench(args: argparse.Namespace) -> str:
    # Deferred import: pulls in the whole experiment stack.
    from pathlib import Path

    from .bench import compare_records, read_record, run_suite, write_record

    def refuse(message: str) -> NoReturn:
        # A baseline the run cannot be compared with: one line, exit 2.
        print(f"bench: {message}", file=sys.stderr)
        raise SystemExit(2)

    out = args.out or f"BENCH_{args.suite}.json"
    baseline = None
    if args.compare is not None:
        # Read the baseline before the fresh record can be written over it.
        if Path(out).resolve() == Path(args.compare).resolve():
            refuse(
                f"--out {out} is the --compare baseline; "
                "write the fresh record to another path"
            )
        try:
            baseline = read_record(args.compare)
        except (OSError, ValueError) as error:
            refuse(f"cannot read baseline {args.compare}: {error}")
    scale = _scale_from_args(args)
    record = run_suite(args.suite, scale)
    write_record(out, record)
    lines = [
        f"Benchmark suite '{args.suite}' "
        f"(users={scale.num_users}, slots={scale.num_slots}, "
        f"repetitions={scale.repetitions}) -> {out}",
    ]
    for name, metric in record.metrics.items():
        lines.append(f"  {name:28s} {metric.value:12.6g} {metric.unit}")
    if baseline is not None:
        try:
            report = compare_records(
                baseline,
                record,
                time_threshold=args.threshold / 100.0,
                gate_time=args.gate_time,
            )
        except ValueError as error:
            refuse(f"cannot compare with {args.compare}: {error}")
        lines += ["", report.render()]
        if not report.ok:
            # Nonzero exit is the CI gate; the report still goes to stdout.
            print("\n".join(lines))
            raise SystemExit(1)
    return "\n".join(lines)


def _cmd_doctor(args: argparse.Namespace) -> str:
    from .bench import doctor_report

    return doctor_report(args.manifest)


def _cmd_watch(args: argparse.Namespace) -> str:
    from .telemetry import watch

    code = watch(
        args.manifest,
        interval=args.interval,
        follow=not args.once,
        strict=args.strict,
        timeout=args.timeout,
    )
    # watch() renders its own frames; the exit code is the whole result.
    raise SystemExit(code)


def _cmd_export(args: argparse.Namespace) -> str:
    from .telemetry import read_manifest, write_chrome_trace, write_openmetrics

    if args.trace is None and args.openmetrics is None and args.speedscope is None:
        raise SystemExit(
            "export: pass --trace PATH, --openmetrics PATH, and/or "
            "--speedscope PATH"
        )
    record = read_manifest(args.manifest, strict=False)
    lines = [f"Exported from {args.manifest}"]
    if record.truncated:
        lines.append("  (truncated manifest: exporting the recorded prefix)")
    if args.trace is not None:
        out = write_chrome_trace(args.trace, record.spans)
        lines.append(
            f"  chrome trace  -> {out}  (load in chrome://tracing or Perfetto)"
        )
    if args.openmetrics is not None:
        out = write_openmetrics(args.openmetrics, record)
        lines.append(f"  openmetrics   -> {out}  (Prometheus textfile format)")
    if args.speedscope is not None:
        from .telemetry import merge_folded, write_speedscope

        profiles: dict[tuple[str, str], dict] = {}
        for event in record.events_of_type("prof.profile"):
            key = (
                str(event.get("source", "phases")),
                str(event.get("unit", "ms")),
            )
            profiles[key] = merge_folded(
                profiles.get(key, {}), event.get("folded") or {}
            )
        if not profiles:
            lines.append(
                "  speedscope    : no prof.profile events in the manifest "
                "(record the run with --profile)"
            )
        else:
            out = write_speedscope(
                args.speedscope,
                [
                    {"name": source, "unit": unit, "folded": folded}
                    for (source, unit), folded in sorted(profiles.items())
                ],
            )
            lines.append(
                f"  speedscope    -> {out}  (open at https://www.speedscope.app)"
            )
    return "\n".join(lines)


def _cmd_profile(args: argparse.Namespace) -> str:
    from .telemetry import profiling_session, write_collapsed, write_speedscope

    command = list(args.run_cmd)
    if command and command[0] == "--":
        command = command[1:]
    if not command:
        raise SystemExit(
            "profile: pass the repro-edge command to run, e.g. "
            "'repro-edge profile fig2 --slots 4'"
        )
    if command[0] == "profile":
        raise SystemExit("profile: cannot profile itself")
    with profiling_session(hz=args.hz, emit=False) as handle:
        code = main(command)
    lines = [
        f"Profile of: repro-edge {' '.join(command)}",
        f"  sampler: {handle.samples} stack sample(s) at {args.hz:g} hz",
    ]
    ranked = sorted(handle.phase_folded.items(), key=lambda kv: (-kv[1], kv[0]))
    if ranked:
        lines.append("  phase totals:")
        for name, total_ms in ranked[:12]:
            lines.append(f"    {name:36s} {total_ms:12.2f} ms")
    else:
        lines.append("  no instrumented phases ran")
    if args.speedscope is not None:
        profiles = []
        if handle.phase_folded:
            profiles.append(
                {"name": "phases", "unit": "ms", "folded": handle.phase_folded}
            )
        if handle.sampler_folded:
            profiles.append(
                {
                    "name": "sampler",
                    "unit": "samples",
                    "folded": handle.sampler_folded,
                }
            )
        if profiles:
            out = write_speedscope(args.speedscope, profiles)
            lines.append(f"  speedscope -> {out}")
        else:
            lines.append("  speedscope skipped: nothing was recorded")
    if args.collapsed is not None:
        folded = handle.sampler_folded or handle.phase_folded
        out = write_collapsed(args.collapsed, folded)
        lines.append(f"  collapsed  -> {out}  (flamegraph.pl-compatible)")
    if code != 0:
        print("\n".join(lines))
        raise SystemExit(code)
    return "\n".join(lines)


def _service_setup(args: argparse.Namespace):
    """(system, observations, ServiceConfig) for serve/loadgen commands."""
    from .experiments.scale import aggregation_config, fig2_scenario
    from .service import ServiceConfig
    from .simulation.observations import (
        SystemDescription,
        observations_from_instance,
    )

    scale = _scale_from_args(args)
    if getattr(args, "trace", None):
        from .io.traces import load_trace_json
        from .mobility.replay import ReplayMobility
        from .simulation.scenario import Scenario

        trace = load_trace_json(args.trace)
        scenario = Scenario(
            mobility=ReplayMobility(trace),
            num_users=trace.num_users,
            num_slots=trace.num_slots,
            workload_distribution="power",
        )
    else:
        scenario = fig2_scenario(scale)
    instance = scenario.build(seed=scale.seed)
    system = SystemDescription.from_instance(instance)
    observations = observations_from_instance(instance)
    deadline_ms = getattr(args, "deadline_ms", None)
    config = ServiceConfig(
        deadline_s=None if deadline_ms is None else deadline_ms / 1000.0,
        max_iterations=getattr(args, "max_iterations", None),
        eps1=scale.eps,
        eps2=scale.eps,
        aggregation=aggregation_config(scale),
    )
    return system, observations, config


def _cmd_serve(args: argparse.Namespace) -> str:
    import asyncio

    from .service import AllocationServer, AllocationSession, serve_stdio

    system, _, config = _service_setup(args)
    session = AllocationSession(system, config)
    if args.stdio:
        served = serve_stdio(session)
        return f"served {served} slot(s) over stdio"

    server = AllocationServer(
        session,
        host=args.host,
        port=args.port,
        tick_s=None if args.tick_ms is None else args.tick_ms / 1000.0,
        metrics_port=args.metrics_port,
    )

    async def _serve() -> None:
        await server.start()
        print(
            f"serving {system.num_users} users x {system.num_clouds} clouds "
            f"on {server.host}:{server.port}"
            + (
                f" (metrics on :{server.metrics_endpoint.port}/metrics)"
                if server.metrics_endpoint is not None
                else ""
            ),
            flush=True,
        )
        await server.serve_forever()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    stats = session.stats()
    return (
        f"served {stats['slots']} slot(s), total cost {stats['total_cost']:.6f}, "
        f"{stats['deadline_misses']} deadline miss(es)"
    )


def _cmd_loadgen(args: argparse.Namespace) -> str:
    import json as json_module

    from .service import run_loadgen

    system, observations, config = _service_setup(args)
    report = run_loadgen(
        system,
        observations,
        config,
        speed=args.speed,
        slot_s=args.slot_ms / 1000.0,
        host=args.host,
        port=args.port,
        batch_reference=not args.no_batch_reference,
    )
    if args.out is not None:
        from pathlib import Path

        Path(args.out).write_text(
            json_module.dumps(report.as_dict(), indent=2) + "\n"
        )
    output = report.render()
    failures = []
    if args.require_zero_misses and report.deadline_misses > 0:
        failures.append(f"{report.deadline_misses} deadline miss(es) (0 required)")
    if args.max_cost_delta is not None and not args.no_batch_reference:
        scale_ref = max(1.0, abs(report.batch_cost))
        if abs(report.cost_delta) > args.max_cost_delta * scale_ref:
            failures.append(
                f"|cost delta| {abs(report.cost_delta):.3e} exceeds "
                f"{args.max_cost_delta:g} x max(1, |batch cost|)"
            )
    if failures:
        print(output)
        raise SystemExit("loadgen gate failed: " + "; ".join(failures))
    return output


def _cmd_incident(args: argparse.Namespace) -> str:
    from .telemetry import read_bundle, replay_bundle

    try:
        bundle = read_bundle(args.bundle, strict=not args.salvage)
    except (OSError, ValueError) as error:
        raise SystemExit(f"incident: {error}") from None
    if args.action == "show":
        environment = bundle.environment or {}
        alert = bundle.alert or {}
        lines = [
            f"Incident bundle {bundle.path}",
            f"  reason     : {bundle.reason or '?'}",
            f"  snapshots  : {len(bundle.snapshots)}",
        ]
        if bundle.snapshots:
            slots = [s.get("slot") for s in bundle.snapshots]
            lines.append(f"  slots      : {slots[0]}..{slots[-1]}")
        if alert:
            lines.append(
                f"  alert      : [{alert.get('rule', '?')}] "
                f"{alert.get('message', '')}"
            )
        if environment:
            lines.append(
                f"  recorded on: python {environment.get('python', '?')}, "
                f"numpy {environment.get('numpy', '?')}, "
                f"blas {environment.get('blas', '?')}"
            )
        controller = bundle.controller or {}
        lines.append(
            f"  controller : {controller.get('kind', '?')} "
            f"(replayable: {controller.get('replayable', False)})"
        )
        if bundle.truncated:
            lines.append("  TRUNCATED  : torn tail dropped (salvaged read)")
        context = bundle.context or {}
        traces = context.get("trace_ids") or []
        if traces:
            lines.append(f"  trace ids  : {', '.join(map(str, traces))}")
        return "\n".join(lines)
    try:
        report = replay_bundle(bundle)
    except ValueError as error:
        raise SystemExit(f"incident: {error}") from None
    if not report.ok:
        print(report.render())
        raise SystemExit(1)
    return report.render()


def _cmd_quickstart(args: argparse.Namespace) -> str:
    # Deferred import: the baselines pull in the LP machinery.
    from . import (
        OfflineOptimal,
        OnlineGreedy,
        OnlineRegularizedAllocator,
        Scenario,
        compare_algorithms,
    )

    from .experiments.scale import aggregation_config

    scale = _scale_from_args(args)
    scenario = Scenario(num_users=scale.num_users, num_slots=scale.num_slots)
    instance = scenario.build(seed=scale.seed)
    comparison = compare_algorithms(
        [
            OfflineOptimal(),
            OnlineGreedy(),
            OnlineRegularizedAllocator(aggregation=aggregation_config(scale)),
        ],
        instance,
    )
    lines = ["Quickstart comparison (taxi mobility, power workloads)"]
    for name, ratio in comparison.ratios().items():
        lines.append(f"  {name:15s} ratio {ratio:.3f}")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser with one subcommand per experiment."""
    parser = argparse.ArgumentParser(
        prog="repro-edge",
        description="Reproduce the ICDCS 2017 online edge-cloud allocation paper.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("fig1", help="the two greedy-pitfall examples").set_defaults(
        func=_cmd_fig1
    )
    for name, func, help_text in (
        ("fig2", _cmd_fig2, "taxi mobility, power workloads"),
        ("fig3", _cmd_fig3, "uniform / normal workloads"),
        ("fig4", _cmd_fig4, "eps and mu sweeps"),
        ("quickstart", _cmd_quickstart, "minimal three-algorithm comparison"),
        ("threshold", _cmd_threshold, "adversarial oscillating-price sweep"),
        ("lookahead", _cmd_lookahead, "perfect-prediction (receding horizon) ablation"),
        ("certify", _cmd_certify, "dual certificate of the competitive-ratio chain"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_scale_arguments(p)
        p.set_defaults(func=func)

    p5 = sub.add_parser("fig5", help="random-walk mobility, varying user counts")
    _add_scale_arguments(p5)
    p5.add_argument(
        "--user-counts", type=int, nargs="+", default=[10, 20, 40], metavar="N"
    )
    p5.add_argument(
        "--stay-bias",
        type=float,
        default=0.0,
        help="0 = the paper's uniform walk; >0 makes users dwell several slots",
    )
    p5.set_defaults(func=_cmd_fig5)

    bench = sub.add_parser(
        "bench", help="run a named benchmark suite, write BENCH_<suite>.json"
    )
    _add_scale_arguments(bench)
    bench.add_argument(
        "--suite",
        default="smoke",
        help="suite name: smoke, solver, fig2, fig5, parallel, batched, "
        "aggregate, service (default: smoke)",
    )
    bench.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="output record path (default: BENCH_<suite>.json)",
    )
    bench.add_argument(
        "--compare",
        default=None,
        metavar="BASELINE",
        help="compare against a baseline record; exit nonzero on regression",
    )
    bench.add_argument(
        "--threshold",
        type=float,
        default=10.0,
        metavar="PCT",
        help="wall-time regression threshold in percent (default: 10)",
    )
    bench.add_argument(
        "--gate-time",
        action="store_true",
        help="also fail the gate on wall-time regressions (default: advisory)",
    )
    bench.set_defaults(func=_cmd_bench)

    def _add_service_arguments(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--deadline-ms",
            type=float,
            default=None,
            metavar="MS",
            help="per-slot solve deadline in milliseconds; a slot past it "
            "serves the repaired partial iterate and counts as a deadline "
            "miss (default: no deadline)",
        )
        p.add_argument(
            "--max-iterations",
            type=int,
            default=None,
            metavar="N",
            help="per-slot Newton-iteration cap (deterministic twin of "
            "--deadline-ms; default: uncapped)",
        )
        p.add_argument(
            "--trace",
            default=None,
            metavar="PATH",
            help="replay a mobility trace saved by repro.io.traces "
            "(JSON form) instead of generating the fig2 scenario trace",
        )

    serve = sub.add_parser(
        "serve",
        help="run the live allocation service (JSON-lines over TCP or stdio)",
    )
    _add_scale_arguments(serve)
    _add_service_arguments(serve)
    serve.add_argument("--host", default="127.0.0.1", help="listen address")
    serve.add_argument(
        "--port", type=int, default=7201, help="listen port (0 = pick a free one)"
    )
    serve.add_argument(
        "--tick-ms",
        type=float,
        default=None,
        metavar="MS",
        help="advance slots on a wall-clock tick instead of per update: "
        "buffered updates are downsampled to the freshest one each tick",
    )
    serve.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help="also serve live OpenMetrics on GET /metrics at this port",
    )
    serve.add_argument(
        "--stdio",
        action="store_true",
        help="serve JSON lines over stdin/stdout instead of TCP",
    )
    serve.set_defaults(func=_cmd_serve)

    loadgen = sub.add_parser(
        "loadgen",
        help="replay a trace against the service; report latency percentiles "
        "and the realized-vs-batch cost delta",
    )
    _add_scale_arguments(loadgen)
    _add_service_arguments(loadgen)
    loadgen.add_argument(
        "--speed",
        type=float,
        default=1.0,
        metavar="X",
        help="replay speed factor (0 = as fast as possible; default: 1)",
    )
    loadgen.add_argument(
        "--slot-ms",
        type=float,
        default=1000.0,
        metavar="MS",
        help="real-time slot duration at 1x speed (default: 1000)",
    )
    loadgen.add_argument(
        "--host",
        default=None,
        help="target an external server instead of spawning one in-process",
    )
    loadgen.add_argument(
        "--port", type=int, default=None, help="external server port"
    )
    loadgen.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write the replay report as JSON to PATH",
    )
    loadgen.add_argument(
        "--no-batch-reference",
        action="store_true",
        help="skip the unbudgeted batch cross-check solve",
    )
    loadgen.add_argument(
        "--require-zero-misses",
        action="store_true",
        help="exit nonzero when any slot missed the deadline (CI gate)",
    )
    loadgen.add_argument(
        "--max-cost-delta",
        type=float,
        default=None,
        metavar="RTOL",
        help="exit nonzero when |streamed - batch| cost exceeds "
        "RTOL x max(1, |batch|) (CI gate)",
    )
    loadgen.set_defaults(func=_cmd_loadgen)

    doctor = sub.add_parser(
        "doctor", help="post-mortem report from a telemetry run manifest"
    )
    doctor.add_argument(
        "manifest",
        help="path to a .jsonl run manifest, or a directory "
        "(its newest .jsonl is diagnosed)",
    )
    doctor.set_defaults(func=_cmd_doctor)

    watch_p = sub.add_parser(
        "watch", help="live dashboard over a streaming run manifest"
    )
    watch_p.add_argument(
        "manifest",
        help="manifest to tail (may still be growing, or not exist yet)",
    )
    watch_p.add_argument(
        "--interval",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="seconds between polls (default: 0.5)",
    )
    watch_p.add_argument(
        "--once",
        action="store_true",
        help="render the current state once and exit instead of following",
    )
    watch_p.add_argument(
        "--strict",
        action="store_true",
        help="exit nonzero when any alert fired (recorded in the "
        "manifest or re-derived from the event stream)",
    )
    watch_p.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="stop following after this many seconds (default: follow until "
        "manifest_end)",
    )
    watch_p.set_defaults(func=_cmd_watch)

    incident = sub.add_parser(
        "incident",
        help="inspect or deterministically replay an incident bundle "
        "written by the --flight recorder",
    )
    incident.add_argument(
        "action",
        choices=("replay", "show"),
        help="'replay' rebuilds every captured slot through the solver and "
        "verifies costs/iterations/partial flags reproduce bit-for-bit "
        "(exit 1 with a per-field diff on divergence, or with a one-line "
        "message naming what it cannot reproduce); 'show' prints the "
        "bundle header",
    )
    incident.add_argument(
        "bundle", help="path to an incident-*.jsonl bundle file"
    )
    incident.add_argument(
        "--salvage",
        action="store_true",
        help="tolerate a torn/truncated bundle: drop the torn tail and "
        "show what survived (replay still refuses truncated bundles)",
    )
    incident.set_defaults(func=_cmd_incident)

    export = sub.add_parser(
        "export", help="convert a run manifest to external tooling formats"
    )
    export.add_argument("manifest", help="path to a .jsonl run manifest")
    export.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write a Chrome trace_event JSON of the span trees to PATH",
    )
    export.add_argument(
        "--openmetrics",
        default=None,
        metavar="PATH",
        help="write an OpenMetrics/Prometheus text snapshot of the metrics "
        "to PATH",
    )
    export.add_argument(
        "--speedscope",
        default=None,
        metavar="PATH",
        help="write the manifest's prof.profile folded stacks (recorded "
        "with --profile) as a speedscope JSON document to PATH",
    )
    export.set_defaults(func=_cmd_export)

    profile = sub.add_parser(
        "profile",
        help="run any repro-edge command under the sampling profiler and "
        "phase timers; print the phase ranking and optionally write "
        "speedscope/collapsed profiles",
    )
    profile.add_argument(
        "--hz",
        type=float,
        default=19.0,
        metavar="HZ",
        help="stack-sampling frequency (default: 19)",
    )
    profile.add_argument(
        "--speedscope",
        default=None,
        metavar="PATH",
        help="write phase + sampler profiles as a speedscope JSON document",
    )
    profile.add_argument(
        "--collapsed",
        default=None,
        metavar="PATH",
        help="write the sampled stacks in collapsed (flamegraph.pl) format",
    )
    profile.add_argument(
        "run_cmd",
        nargs=argparse.REMAINDER,
        metavar="COMMAND...",
        help="the repro-edge command line to profile (e.g. fig2 --slots 4)",
    )
    profile.set_defaults(func=_cmd_profile)
    return parser


def _run_command(args: argparse.Namespace) -> str:
    """Run the selected command under --trace-context / --profile scopes.

    Both scopes are strictly additive instrumentation: with neither flag
    this is exactly ``args.func(args)`` — no tracer, no profiler thread,
    no extra telemetry of any kind.
    """
    import contextlib

    want_trace = getattr(args, "trace_context", False)
    want_profile = getattr(args, "profile", False)
    if not (want_trace or want_profile):
        return args.func(args)
    with contextlib.ExitStack() as stack:
        if want_profile:
            from .telemetry import profiling_session

            hz = getattr(args, "profile_hz", None)
            stack.enter_context(
                profiling_session(hz=19.0 if hz is None else hz)
            )
        if want_trace:
            from .telemetry import traced_root

            stack.enter_context(traced_root("run", command=args.command))
        return args.func(args)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    ``--telemetry PATH`` runs the command inside a telemetry session that
    streams its JSON-lines run manifest to ``PATH`` (tail it live with
    ``repro-edge watch PATH``), ``--watchdog``/``--slo``/``--flight`` arm
    the alert rules and the flight recorder on that session's sink chain,
    and ``--metrics-summary`` appends the metrics table to the report.
    ``serve`` always runs under a live registry, which ``/metrics``
    reads. All of it observes only — the reported numbers are identical
    either way.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    manifest_path = getattr(args, "telemetry", None)
    want_summary = getattr(args, "metrics_summary", False)
    # --flight and --slo imply --watchdog.
    want_slo = getattr(args, "slo", False)
    flight = getattr(args, "flight", None)
    recorder = None
    if flight:
        from .telemetry import FlightRecorder

        recorder = FlightRecorder(
            flight, incident_dir=getattr(args, "incident_dir", None)
        )
    rules = ()
    if getattr(args, "watchdog", False) or want_slo or recorder is not None:
        from .telemetry import default_rules, default_slos

        deadline_ms = getattr(args, "deadline_ms", None)
        rules = default_rules() + (
            default_slos(deadline_ms=deadline_ms) if want_slo else ()
        )
    wants_telemetry = (
        manifest_path is not None
        or want_summary
        or rules
        or args.command == "serve"
        or getattr(args, "trace_context", False)
        or getattr(args, "profile", False)
    )
    if not wants_telemetry:
        try:
            print(args.func(args))
        except (OSError, ValueError) as error:
            if args.command not in ("doctor", "export", "watch"):
                raise
            # An unreadable or non-manifest input: one line, exit 2.
            print(f"{args.command}: {error}", file=sys.stderr)
            return 2
        return 0

    from .telemetry import streaming_manifest_session

    config = {
        "command": args.command,
        **{
            key: value
            for key, value in vars(args).items()
            if key not in ("func", "command") and not callable(value)
        },
    }
    with streaming_manifest_session(
        manifest_path, config=config, rules=rules, recorder=recorder
    ) as registry:
        output = _run_command(args)
    if want_summary:
        output = f"{output}\n\n{registry.summary_table()}"
    # serve --stdio answers on stdout, so its report goes to stderr.
    print(output, file=sys.stderr if getattr(args, "stdio", False) else sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
