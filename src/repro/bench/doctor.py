"""``repro-edge doctor``: a post-mortem report from a run manifest.

Renders what went wrong (or right) in a recorded run, without re-running
anything: the slowest slots, solver fallback and circuit-breaker firings,
optimality-certificate violations and the worst duality gaps, competitive-
ratio bound violations, and the interior-point convergence summary.

Works on torn manifests too — a crashed or killed run leaves no
``manifest_end`` line, so the doctor loads with
``read_manifest(path, strict=False)`` and flags the truncation instead of
refusing the patient.
"""

from __future__ import annotations

from pathlib import Path

from ..diagnostics import summarize_convergence
from ..diagnostics.certificates import DEFAULT_GAP_TOL
from ..telemetry import RunRecord, read_manifest

#: How many worst offenders each section lists.
TOP_N = 5


def resolve_manifest_path(path: str | Path) -> Path:
    """Resolve a manifest argument: a file as-is, a directory to its
    newest ``*.jsonl`` manifest (by modification time).

    Raises ``FileNotFoundError`` when a directory holds no ``*.jsonl``.
    """
    path = Path(path)
    if not path.is_dir():
        return path
    manifests = sorted(
        path.glob("*.jsonl"), key=lambda p: p.stat().st_mtime, reverse=True
    )
    if not manifests:
        raise FileNotFoundError(f"{path}: directory holds no *.jsonl manifest")
    return manifests[0]


def load_for_doctor(path: str | Path) -> RunRecord:
    """Load a manifest for post-mortem, tolerating truncation.

    ``path`` may be a directory: the newest ``*.jsonl`` inside it is
    picked (crashed runs rarely leave you remembering the exact file).
    """
    return read_manifest(resolve_manifest_path(path), strict=False)


def _fmt_config(config: dict) -> str:
    interesting = {
        key: value
        for key, value in config.items()
        if value is not None and key not in ("func",)
    }
    if not interesting:
        return "(none recorded)"
    return ", ".join(f"{key}={value}" for key, value in sorted(interesting.items()))


def _slowest_slots(record: RunRecord) -> list[str]:
    slots = [e for e in record.slot_events if "wall_ms" in e]
    if not slots:
        return ["  no per-slot timings recorded"]
    ranked = sorted(slots, key=lambda e: float(e["wall_ms"]), reverse=True)
    lines = []
    for event in ranked[:TOP_N]:
        lines.append(
            f"  slot {int(event.get('slot', -1)):4d}: "
            f"{float(event['wall_ms']):8.2f} ms  "
            f"(total cost {float(event.get('total', 0.0)):.3f})"
        )
    histogram = record.histograms.get("slot.wall_ms", {})
    if histogram.get("count"):
        lines.append(
            "  slot wall time: "
            f"p50={histogram.get('p50', 0.0) or 0.0:.2f} ms "
            f"p95={histogram.get('p95', 0.0) or 0.0:.2f} ms "
            f"p99={histogram.get('p99', 0.0) or 0.0:.2f} ms "
            f"over {int(histogram['count'])} slots"
        )
    return lines


def _solver_incidents(record: RunRecord) -> list[str]:
    fallbacks = record.events_of_type("solver.fallback")
    circuits = record.events_of_type("solver.circuit_open")
    if not fallbacks and not circuits:
        return ["  none - primary backend handled every solve"]
    lines = [f"  fallbacks: {len(fallbacks)}, circuit-breaker openings: {len(circuits)}"]
    for event in fallbacks[:TOP_N]:
        lines.append(
            f"  fallback from {event.get('primary', '?')}: "
            f"{event.get('error', '?')}"
        )
    for event in circuits[:TOP_N]:
        lines.append(
            f"  circuit opened on {event.get('primary', '?')} after "
            f"{event.get('failures', '?')} failures "
            f"(cooldown {event.get('cooldown', '?')})"
        )
    return lines


def _certificates(record: RunRecord, tol: float) -> list[str]:
    certificates = record.events_of_type("diag.certificate")
    if not certificates:
        return ["  no certificates recorded (run without certify)"]
    violations = [
        e for e in certificates if float(e.get("relative_gap", 0.0)) > tol
    ]
    worst = sorted(
        certificates,
        key=lambda e: float(e.get("relative_gap", 0.0)),
        reverse=True,
    )
    lines = [
        f"  {len(certificates)} certificates, "
        f"{len(violations)} above tol {tol:g}"
    ]
    for event in worst[:TOP_N]:
        gap = float(event.get("relative_gap", 0.0))
        marker = "VIOLATION" if gap > tol else "ok"
        lines.append(
            f"  slot {int(event.get('slot', -1)):4d}: rel gap {gap:.3e} "
            f"(kkt {float(event.get('kkt_residual', 0.0)):.3e}, "
            f"{event.get('source', '?')})  {marker}"
        )
    return lines


def _ratio(record: RunRecord) -> list[str]:
    traces = record.events_of_type("diag.ratio.trace")
    violations = record.events_of_type("diag.ratio.violation")
    if not traces and not violations:
        return ["  no ratio trace recorded"]
    lines = []
    for event in traces:
        lines.append(
            f"  bound {float(event.get('bound', 0.0)):.3f}, "
            f"final ratio {float(event.get('final_ratio', 0.0)):.3f}, "
            f"worst prefix {float(event.get('worst_ratio', 0.0)):.3f}, "
            f"certified: {event.get('certified')}"
        )
    for event in violations[:TOP_N]:
        lines.append(
            f"  VIOLATION at slot {int(event.get('slot', -1))}: "
            f"ratio {float(event.get('ratio', 0.0)):.3f} "
            f"> bound {float(event.get('bound', 0.0)):.3f}"
        )
    return lines


def _convergence(record: RunRecord) -> list[str]:
    summary = summarize_convergence(record)
    if not summary.solves:
        return ["  no interior-point traces recorded"]
    lines = [
        f"  {summary.solves} solves, "
        f"{summary.total_iterations} predictor-corrector iterations "
        f"(max {summary.max_iterations}, mean {summary.mean_iterations:.1f})",
        f"  terminal complementarity <= {summary.max_final_mu:.3e}, "
        f"terminal certified gap <= {summary.max_final_gap:.3e}",
    ]
    if summary.uncertified:
        lines.append(
            f"  WARNING: {summary.uncertified} solve(s) returned with a "
            "certified gap above the certificate tolerance"
        )
    return lines


def _aggregation(record: RunRecord) -> list[str]:
    slots = record.events_of_type("aggregate.slot")
    if not slots:
        return ["  not used (per-user solves)"]
    cohorts = [int(e.get("cohorts", 0)) for e in slots]
    reductions = [float(e.get("reduction", 1.0)) for e in slots]
    spreads = [float(e.get("spread", 0.0)) for e in slots]
    bounds = [float(e.get("bound", 0.0)) for e in slots]
    errors = [
        float(e["disagg_error"])
        for e in slots
        if e.get("disagg_error") is not None
    ]
    lines = [
        f"  {len(slots)} aggregated slots, cohorts "
        f"{min(cohorts)}..{max(cohorts)}, "
        f"mean reduction {sum(reductions) / len(reductions):.1f}x",
        f"  worst spread {max(spreads):.3f} "
        f"-> a-priori cost error bound {max(bounds):.3f}",
    ]
    if errors:
        worst = max(errors)
        # The a-priori bound covers within-bucket workload spread; cohort
        # membership churn can push the measured gap past it (see
        # docs/SCALING.md), so that state gets a note, not a VIOLATION.
        marker = "ok" if worst <= max(bounds) else "above bound (cohort churn)"
        lines.append(f"  worst measured disaggregation gap {worst:.3e}  {marker}")
    else:
        lines.append(
            "  disaggregation gap not evaluated (instance above "
            "ERROR_EVAL_LIMIT)"
        )
    return lines


def _service(record: RunRecord) -> list[str]:
    slots = int(record.counters.get("service.slots", 0))
    if not slots and not record.events_of_type("service.slot"):
        return ["  no service activity recorded"]
    rejected = int(record.counters.get("service.protocol.rejected", 0))
    superseded = int(record.counters.get("service.updates.superseded", 0))
    misses = int(record.counters.get("service.deadline.misses", 0))
    partial = int(record.counters.get("service.deadline.partial_solves", 0))
    lines = [
        f"  {slots} request(s) served, {rejected} rejected, "
        f"{superseded} superseded",
        f"  deadline misses: {misses} ({partial} budget-truncated solves)",
    ]
    histogram = record.histograms.get("service.slot_latency_ms", {})
    if histogram.get("count"):
        lines.append(
            "  slot latency: "
            f"p50={histogram.get('p50', 0.0) or 0.0:.2f} ms "
            f"p95={histogram.get('p95', 0.0) or 0.0:.2f} ms "
            f"p99={histogram.get('p99', 0.0) or 0.0:.2f} ms "
            f"over {int(histogram['count'])} request(s)"
        )
    for event in record.events_of_type("service.deadline.miss")[:TOP_N]:
        deadline = event.get("deadline_ms")
        budget = (
            "no deadline configured"
            if deadline is None
            else f"deadline {float(deadline):.1f} ms"
        )
        lines.append(
            f"  miss at slot {int(event.get('slot', -1)):4d}: "
            f"{float(event.get('latency_ms', 0.0)):8.2f} ms ({budget}"
            + (", partial solve)" if event.get("partial") else ")")
        )
    return lines


def _parallel(record: RunRecord) -> list[str]:
    cells = int(record.counters.get("sweep.cells", 0))
    if not cells:
        return ["  not used (no sweep dispatch recorded)"]
    workers = int(record.gauges.get("sweep.workers", 0) or 0)
    lines = [f"  {cells} cell(s) dispatched over {workers} worker(s)"]
    wall = record.histograms.get("sweep.cell_wall_s", {})
    if wall.get("count"):
        lines.append(
            "  cell wall time: "
            f"p50={(wall.get('p50', 0.0) or 0.0) * 1000.0:.2f} ms "
            f"p95={(wall.get('p95', 0.0) or 0.0) * 1000.0:.2f} ms"
        )
    fallbacks = int(record.counters.get("parallel.fallback.inline", 0))
    if fallbacks:
        lines.append(
            f"  WARNING: {fallbacks} fan-out(s) degraded to inline "
            "execution (results correct, requested speedup lost)"
        )
        for event in record.events_of_type("parallel.fallback.inline")[:TOP_N]:
            lines.append(
                f"    {event.get('cells', '?')} cell(s) at "
                f"{event.get('workers', '?')} worker(s): "
                f"{event.get('error', '?')}"
            )
    else:
        lines.append("  no inline fallbacks - the pool ran as requested")
    return lines


def _where_time_went(record: RunRecord) -> list[str]:
    events = record.events_of_type("prof.phases")
    if not events:
        return ["  no profile recorded (run with --profile)"]
    totals: dict[str, float] = {}
    wall_total = 0.0
    for event in events:
        wall_total += float(event.get("wall_ms", 0.0))
        for name, ms in (event.get("phases") or {}).items():
            totals[str(name)] = totals.get(str(name), 0.0) + float(ms)
    ranked = sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))
    lines = [
        f"  {len(events)} profiled slot(s), {wall_total:.2f} ms attributed"
    ]
    for name, total_ms in ranked[:TOP_N + 3]:
        share = 0.0 if wall_total <= 0 else 100.0 * total_ms / wall_total
        lines.append(f"  {name:28s} {total_ms:10.2f} ms  ({share:5.1f}%)")
    slowest = sorted(
        events, key=lambda e: float(e.get("wall_ms", 0.0)), reverse=True
    )
    for event in slowest[:3]:
        phases = event.get("phases") or {}
        top = max(phases, key=phases.get) if phases else "?"
        lines.append(
            f"  slowest slot {int(event.get('slot', -1)):4d}: "
            f"{float(event.get('wall_ms', 0.0)):8.2f} ms "
            f"(mostly {top})"
        )
    return lines


def _fmt_environment(environment: dict) -> str:
    if not environment:
        return "(not recorded - pre-fingerprint manifest)"
    parts = [
        f"python {environment.get('python', '?')}",
        f"numpy {environment.get('numpy', '?')}",
    ]
    if environment.get("scipy"):
        parts.append(f"scipy {environment['scipy']}")
    parts.append(f"blas {environment.get('blas', '?')}")
    if environment.get("cpu_count") is not None:
        parts.append(f"{environment['cpu_count']} cpus")
    flags = environment.get("repro_flags") or {}
    if flags:
        parts.append(
            "flags " + ",".join(f"{k}={v}" for k, v in sorted(flags.items()))
        )
    return ", ".join(parts)


def _slo_incidents(record: RunRecord) -> list[str]:
    burns = record.events_of_type("slo.burn")
    incidents = record.events_of_type("incident.written")
    suppressed = int(record.counters.get("watchdog.suppressed", 0))
    snapshots = int(record.counters.get("flight.snapshots", 0))
    if not burns and not incidents and not snapshots:
        lines = ["  no SLO plane or flight recorder active this run"]
        if suppressed:
            lines.append(f"  watchdog alerts suppressed by cooldown: {suppressed}")
        return lines
    lines = []
    firing: dict[str, dict] = {}
    for event in burns:
        name = str(event.get("objective", "?"))
        if event.get("state") == "firing":
            firing[name] = event
        else:
            firing.pop(name, None)
    resolved = sum(1 for e in burns if e.get("state") == "resolved")
    lines.append(
        f"  slo.burn transitions: {len(burns)} "
        f"({len(firing)} still firing, {resolved} resolved)"
    )
    for name, event in sorted(firing.items()):
        lines.append(
            f"  FIRING [{name}] fast {float(event.get('fast_burn', 0.0)):.1f}x / "
            f"slow {float(event.get('slow_burn', 0.0)):.1f}x of budget "
            f"{float(event.get('budget', 0.0)):g}"
        )
    for name, rates in sorted(_burn_gauges(record).items()):
        lines.append(
            f"  burn [{name}] fast {rates.get('fast', 0.0):.2f}x / "
            f"slow {rates.get('slow', 0.0):.2f}x"
        )
    if snapshots:
        lines.append(f"  flight snapshots captured: {snapshots}")
    if incidents:
        lines.append(f"  incident bundles written: {len(incidents)}")
        for event in incidents[:TOP_N]:
            rule = event.get("rule") or event.get("reason", "?")
            lines.append(f"    [{rule}] {event.get('path', '?')}")
        lines.append(
            "    replay with: repro-edge incident replay BUNDLE"
        )
    if suppressed:
        lines.append(f"  watchdog alerts suppressed by cooldown: {suppressed}")
    return lines


def _burn_gauges(record: RunRecord) -> dict[str, dict[str, float]]:
    """slo.burn.{fast,slow}.<objective> gauges, grouped by objective."""
    rates: dict[str, dict[str, float]] = {}
    for name, value in record.gauges.items():
        for window in ("fast", "slow"):
            prefix = f"slo.burn.{window}."
            if name.startswith(prefix):
                rates.setdefault(name[len(prefix):], {})[window] = float(value)
    return rates


def _alerts(record: RunRecord) -> list[str]:
    alerts = record.events_of_type("alert")
    if not alerts:
        return ["  none recorded"]
    by_rule: dict[str, int] = {}
    for event in alerts:
        rule = str(event.get("rule", "?"))
        by_rule[rule] = by_rule.get(rule, 0) + 1
    lines = [
        "  "
        + ", ".join(f"{rule}: {count}" for rule, count in sorted(by_rule.items()))
    ]
    for event in alerts[:TOP_N]:
        slot = event.get("slot")
        where = "" if slot is None else f" (slot {int(slot)})"
        lines.append(
            f"  [{event.get('rule', '?')}]{where} {event.get('message', '')}"
        )
    if len(alerts) > TOP_N:
        lines.append(f"  ... {len(alerts) - TOP_N} more")
    return lines


def doctor_report(
    source: str | Path | RunRecord, *, gap_tol: float = DEFAULT_GAP_TOL
) -> str:
    """Render the post-mortem report for a manifest.

    ``source`` may be a loaded :class:`RunRecord`, a manifest path, or a
    directory (the newest ``*.jsonl`` inside is diagnosed).
    """
    if isinstance(source, RunRecord):
        record = source
        origin = "(in-memory record)"
    else:
        resolved = resolve_manifest_path(source)
        record = load_for_doctor(resolved)
        origin = str(resolved)
    lines = [f"Run post-mortem - {origin}"]
    if record.truncated:
        lines.append(
            "  ** TRUNCATED MANIFEST: the run died before flushing "
            "manifest_end; metrics/spans sections may be missing **"
        )
    lines.append(f"  config: {_fmt_config(record.config)}")
    lines.append(f"  environment: {_fmt_environment(record.environment)}")
    lines.append(
        f"  events: {len(record.events)} "
        f"({len(record.slot_events)} slots, {len(record.run_ends)} runs)"
    )
    sections = (
        ("Slowest slots", _slowest_slots(record)),
        ("Where the time went", _where_time_went(record)),
        ("Watchdog alerts", _alerts(record)),
        ("SLOs & Incidents", _slo_incidents(record)),
        ("Solver incidents", _solver_incidents(record)),
        ("Optimality certificates", _certificates(record, gap_tol)),
        ("Competitive ratio vs Theorem 2", _ratio(record)),
        ("Interior-point convergence", _convergence(record)),
        ("Aggregation", _aggregation(record)),
        ("Parallel sweep", _parallel(record)),
        ("Service", _service(record)),
    )
    for title, body in sections:
        lines.append("")
        lines.append(title)
        lines.extend(body)
    return "\n".join(lines)
