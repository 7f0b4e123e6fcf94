"""``repro-edge doctor``: a post-mortem report from a run manifest.

Renders what went wrong (or right) in a recorded run, without re-running
anything: the slowest slots, solves that stopped without certifying,
optimality-certificate violations and the worst duality gaps, competitive-
ratio bound violations, and the interior-point convergence summary.

Every section is read off one :class:`repro.telemetry.watch.ManifestSummary`
— the fold ``repro-edge watch`` renders too — so the two tools agree on
what each record means.

Works on torn manifests too — a crashed or killed run leaves no
``manifest_end`` line, so the doctor loads with
``read_manifest(path, strict=False)`` and flags the truncation instead of
refusing the patient. A file that is not a run manifest at all (an
incident bundle, say) is refused with ``ValueError``.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..diagnostics.certificates import DEFAULT_GAP_TOL
from ..telemetry import RunRecord, read_manifest
from ..telemetry.watch import TOP_N, ManifestSummary


def _starts_a_manifest(path: Path) -> bool:
    with path.open("r", encoding="utf-8", errors="replace") as handle:
        first = handle.readline()
    try:
        return json.loads(first).get("type") == "manifest_start"
    except (ValueError, AttributeError):
        return False


def resolve_manifest_path(path: str | Path) -> Path:
    """Resolve a manifest argument: a file as-is, a directory to its
    newest ``*.jsonl`` run manifest (by modification time).

    Files beside it that are not run manifests (incident bundles, say)
    are skipped. Raises ``FileNotFoundError`` when a directory holds no
    ``*.jsonl`` manifest.
    """
    path = Path(path)
    if not path.is_dir():
        return path
    candidates = sorted(
        path.glob("*.jsonl"), key=lambda p: p.stat().st_mtime, reverse=True
    )
    for candidate in candidates:
        if candidate.is_file() and _starts_a_manifest(candidate):
            return candidate
    raise FileNotFoundError(f"{path}: directory holds no *.jsonl manifest")


def _fold(record: RunRecord, gap_tol: float) -> ManifestSummary:
    """Replay a loaded manifest through the shared fold."""
    summary = ManifestSummary(gap_tol)
    summary.update(
        {
            "type": "manifest_start",
            "config": record.config,
            "environment": record.environment,
        }
    )
    summary.update_all(record.events)
    summary.update(
        {
            "type": "metrics",
            "counters": record.counters,
            "gauges": record.gauges,
            "histograms": record.histograms,
        }
    )
    if not record.truncated:
        summary.update({"type": "manifest_end", "events": len(record.events)})
    return summary


def _fmt_config(config: dict) -> str:
    interesting = {
        key: value
        for key, value in config.items()
        if value is not None and key not in ("func",)
    }
    if not interesting:
        return "(none recorded)"
    return ", ".join(f"{key}={value}" for key, value in sorted(interesting.items()))


def _quantiles(label: str, histogram: dict, noun: str) -> list[str]:
    """One ``p50/p95/p99`` line for a recorded histogram, if it has samples."""
    if not histogram.get("count"):
        return []
    return [
        f"  {label}: "
        f"p50={histogram.get('p50', 0.0) or 0.0:.2f} ms "
        f"p95={histogram.get('p95', 0.0) or 0.0:.2f} ms "
        f"p99={histogram.get('p99', 0.0) or 0.0:.2f} ms "
        f"over {int(histogram['count'])} {noun}"
    ]


def _slowest_slots(summary: ManifestSummary) -> list[str]:
    if not summary.wall.count:
        return ["  no per-slot timings recorded"]
    lines = [
        f"  slot {int(event.get('slot', -1)):4d}: "
        f"{float(event['wall_ms']):8.2f} ms  "
        f"(total cost {float(event.get('total', 0.0)):.3f})"
        for event in summary.slowest_slots.items
    ]
    return lines + _quantiles(
        "slot wall time", summary.histograms.get("slot.wall_ms", {}), "slots"
    )


def _solver_incidents(summary: ManifestSummary) -> list[str]:
    unconverged = summary.unconverged
    if not unconverged:
        return ["  none - every solve certified its gap or met its budget"]
    return [
        f"  unconverged solves: {unconverged} (finished partial at their "
        "last interior iterate)"
    ]


def _certificates(summary: ManifestSummary) -> list[str]:
    certificates, tol = summary.certificates, summary.gap_tol
    if not certificates.count:
        return ["  no certificates recorded (run without certify)"]
    lines = [
        f"  {certificates.count} certificates, "
        f"{summary.certificate_violations} above tol {tol:g}"
    ]
    for event in certificates.items:
        gap = float(event.get("relative_gap", 0.0))
        marker = "VIOLATION" if gap > tol else "ok"
        lines.append(
            f"  slot {int(event.get('slot', -1)):4d}: rel gap {gap:.3e} "
            f"(kkt {float(event.get('kkt_residual', 0.0)):.3e}, "
            f"{event.get('source', '?')})  {marker}"
        )
    return lines


def _ratio(summary: ManifestSummary) -> list[str]:
    if not summary.ratio_traces and not summary.ratio_violations.count:
        return ["  no ratio trace recorded"]
    lines = []
    for event in summary.ratio_traces:
        lines.append(
            f"  bound {float(event.get('bound', 0.0)):.3f}, "
            f"final ratio {float(event.get('final_ratio', 0.0)):.3f}, "
            f"worst prefix {float(event.get('worst_ratio', 0.0)):.3f}, "
            f"certified: {event.get('certified')}"
        )
    for event in summary.ratio_violations.items:
        lines.append(
            f"  VIOLATION at slot {int(event.get('slot', -1))}: "
            f"ratio {float(event.get('ratio', 0.0)):.3f} "
            f"> bound {float(event.get('bound', 0.0)):.3f}"
        )
    return lines


def _convergence(summary: ManifestSummary) -> list[str]:
    totals = summary.convergence
    if not totals.solves:
        return ["  no interior-point traces recorded"]
    lines = [
        f"  {totals.solves} solves, "
        f"{totals.total_iterations} predictor-corrector iterations "
        f"(max {totals.max_iterations}, mean {totals.mean_iterations:.1f})",
        f"  terminal complementarity <= {totals.max_final_mu:.3e}, "
        f"terminal certified gap <= {totals.max_final_gap:.3e}",
    ]
    if totals.uncertified:
        lines.append(
            f"  WARNING: {totals.uncertified} solve(s) returned with a "
            "certified gap above the certificate tolerance"
        )
    return lines


def _aggregation(summary: ManifestSummary) -> list[str]:
    if not summary.agg_slots:
        return ["  not used (per-user solves)"]
    sizes, bound = summary.agg_sizes, summary.agg_bounds.maximum
    lines = [
        f"  {summary.agg_slots} aggregated slots, cohorts "
        f"{int(sizes.minimum)}..{int(sizes.maximum)}, "
        f"mean reduction {summary.agg_reductions.mean:.1f}x",
        f"  worst spread {summary.agg_spreads.maximum:.3f} "
        f"-> a-priori cost error bound {bound:.3f}",
    ]
    if summary.agg_errors.count:
        worst = summary.agg_errors.maximum
        # The a-priori bound covers within-bucket workload spread; cohort
        # membership churn can push the measured gap past it (see
        # docs/SCALING.md), so that state gets a note, not a VIOLATION.
        marker = "ok" if worst <= bound else "above bound (cohort churn)"
        lines.append(f"  worst measured disaggregation gap {worst:.3e}  {marker}")
    else:
        lines.append(
            "  disaggregation gap not evaluated (instance above "
            "ERROR_EVAL_LIMIT)"
        )
    return lines


def _service(summary: ManifestSummary) -> list[str]:
    counters = summary.counters
    slots = int(counters.get("service.slots", 0))
    if not slots and not summary.service_slots:
        return ["  no service activity recorded"]
    rejected = int(counters.get("service.protocol.rejected", 0))
    superseded = int(counters.get("service.updates.superseded", 0))
    misses = int(counters.get("service.deadline.misses", 0))
    partial = int(counters.get("service.deadline.partial_solves", 0))
    lines = [
        f"  {slots} request(s) served, {rejected} rejected, "
        f"{superseded} superseded",
        f"  deadline misses: {misses} ({partial} budget-truncated solves)",
    ]
    lines += _quantiles(
        "slot latency",
        summary.histograms.get("service.slot_latency_ms", {}),
        "request(s)",
    )
    for event in summary.deadline_misses.items:
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


def _parallel(summary: ManifestSummary) -> list[str]:
    cells = int(summary.counters.get("sweep.cells", 0))
    if not cells:
        return ["  not used (no sweep dispatch recorded)"]
    workers = int(summary.gauges.get("sweep.workers", 0) or 0)
    lines = [f"  {cells} cell(s) dispatched over {workers} worker(s)"]
    wall = summary.histograms.get("sweep.cell_wall_s", {})
    if wall.get("count"):
        lines.append(
            "  cell wall time: "
            f"p50={(wall.get('p50', 0.0) or 0.0) * 1000.0:.2f} ms "
            f"p95={(wall.get('p95', 0.0) or 0.0) * 1000.0:.2f} ms"
        )
    fallbacks = int(summary.counters.get("parallel.fallback.inline", 0))
    if fallbacks:
        lines.append(
            f"  WARNING: {fallbacks} fan-out(s) degraded to inline "
            "execution (results correct, requested speedup lost)"
        )
        for event in summary.inline_fallbacks.items:
            lines.append(
                f"    {event.get('cells', '?')} cell(s) at "
                f"{event.get('workers', '?')} worker(s): "
                f"{event.get('error', '?')}"
            )
    else:
        lines.append("  no inline fallbacks - the pool ran as requested")
    return lines


def _where_time_went(summary: ManifestSummary) -> list[str]:
    profiles = summary.profiles
    if not profiles.count:
        return ["  no profile recorded (run with --profile)"]
    wall_total = summary.profiled_ms
    ranked = sorted(
        ((name, histogram.total) for name, histogram in summary.phase_latency.items()),
        key=lambda kv: (-kv[1], kv[0]),
    )
    lines = [
        f"  {profiles.count} profiled slot(s), {wall_total:.2f} ms attributed"
    ]
    for name, total_ms in ranked[:TOP_N + 3]:
        share = 0.0 if wall_total <= 0 else 100.0 * total_ms / wall_total
        lines.append(f"  {name:28s} {total_ms:10.2f} ms  ({share:5.1f}%)")
    for event in profiles.items:
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


def _slo_incidents(summary: ManifestSummary) -> list[str]:
    suppressed = int(summary.counters.get("watchdog.suppressed", 0))
    snapshots = int(summary.counters.get("flight.snapshots", 0))
    if not summary.slo_transitions and not summary.bundles and not snapshots:
        lines = ["  no SLO plane or flight recorder active this run"]
        if suppressed:
            lines.append(f"  watchdog alerts suppressed by cooldown: {suppressed}")
        return lines
    firing = sorted(summary.slo_firing)
    lines = [
        f"  slo.burn transitions: {summary.slo_transitions} "
        f"({len(firing)} still firing, {summary.slo_resolved} resolved)"
    ]
    for name in firing:
        event = summary.slo_burn[name]
        lines.append(
            f"  FIRING [{name}] fast {float(event.get('fast_burn', 0.0)):.1f}x / "
            f"slow {float(event.get('slow_burn', 0.0)):.1f}x of budget "
            f"{float(event.get('budget', 0.0)):g}"
        )
    for name, rates in sorted(_burn_gauges(summary.gauges).items()):
        lines.append(
            f"  burn [{name}] fast {rates.get('fast', 0.0):.2f}x / "
            f"slow {rates.get('slow', 0.0):.2f}x"
        )
    if snapshots:
        lines.append(f"  flight snapshots captured: {snapshots}")
    if summary.bundles:
        lines.append(f"  incident bundles written: {len(summary.bundles)}")
        for path, rule in list(summary.bundles.items())[:TOP_N]:
            lines.append(f"    [{rule}] {path}")
        lines.append(
            "    replay with: repro-edge incident replay BUNDLE"
        )
    if suppressed:
        lines.append(f"  watchdog alerts suppressed by cooldown: {suppressed}")
    return lines


def _burn_gauges(gauges: dict) -> dict[str, dict[str, float]]:
    """slo.burn.{fast,slow}.<objective> gauges, grouped by objective."""
    rates: dict[str, dict[str, float]] = {}
    for name, value in gauges.items():
        for window in ("fast", "slow"):
            prefix = f"slo.burn.{window}."
            if name.startswith(prefix):
                rates.setdefault(name[len(prefix):], {})[window] = float(value)
    return rates


def _alerts(summary: ManifestSummary) -> list[str]:
    alerts = summary.recorded_alerts
    if not alerts.count:
        return ["  none recorded"]
    lines = [
        "  "
        + ", ".join(
            f"{rule}: {count}" for rule, count in sorted(summary.alert_rules.items())
        )
    ]
    for alert in alerts.items:
        where = "" if alert.slot is None else f" (slot {int(alert.slot)})"
        lines.append(f"  [{alert.rule}]{where} {alert.message}")
    if alerts.count > TOP_N:
        lines.append(f"  ... {alerts.count - TOP_N} more")
    return lines


def doctor_report(
    source: str | Path | RunRecord, *, gap_tol: float = DEFAULT_GAP_TOL
) -> str:
    """Render the post-mortem report for a manifest.

    ``source`` may be a loaded :class:`RunRecord`, a manifest path, or a
    directory (the newest ``*.jsonl`` run manifest inside is diagnosed).
    Raises ``ValueError`` for a file that is not a run manifest and
    ``OSError`` for one that cannot be read.
    """
    if isinstance(source, RunRecord):
        record = source
        origin = "(in-memory record)"
    else:
        resolved = resolve_manifest_path(source)
        record = read_manifest(resolved, strict=False)
        origin = str(resolved)
    summary = _fold(record, gap_tol)
    lines = [f"Run post-mortem - {origin}"]
    if not summary.done:
        lines.append(
            "  ** TRUNCATED MANIFEST: the run died before flushing "
            "manifest_end; metrics/spans sections may be missing **"
        )
    lines.append(f"  config: {_fmt_config(summary.config)}")
    lines.append(f"  environment: {_fmt_environment(summary.environment)}")
    lines.append(
        f"  events: {summary.events} "
        f"({summary.total_slots} slots, {summary.run_ends} runs)"
    )
    sections = (
        ("Slowest slots", _slowest_slots(summary)),
        ("Where the time went", _where_time_went(summary)),
        ("Watchdog alerts", _alerts(summary)),
        ("SLOs & Incidents", _slo_incidents(summary)),
        ("Solver incidents", _solver_incidents(summary)),
        ("Optimality certificates", _certificates(summary)),
        ("Competitive ratio vs Theorem 2", _ratio(summary)),
        ("Interior-point convergence", _convergence(summary)),
        ("Aggregation", _aggregation(summary)),
        ("Parallel sweep", _parallel(summary)),
        ("Service", _service(summary)),
    )
    for title, body in sections:
        lines.append("")
        lines.append(title)
        lines.extend(body)
    return "\n".join(lines)
