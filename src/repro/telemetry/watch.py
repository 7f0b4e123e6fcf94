"""``repro-edge watch``, and the manifest fold it shares with ``doctor``.

A run started with a :class:`repro.telemetry.sinks.StreamingManifestWriter`
(e.g. ``repro-edge fig2 --telemetry run.jsonl``) appends one
JSON line per event as it happens. This module follows such a file the
way ``tail -f`` would — :class:`ManifestTail` reads only the bytes added
since the last poll and never trips over a torn (mid-write) trailing
line — folds every record into a :class:`WatchState`, and renders a
refreshing terminal dashboard: slots done, per-slot wall p50/p95, the
running four-component cost, solver iterations, the empirical
competitive ratio against the certified ``1+γ|I|`` bound, and alerts.

:class:`ManifestSummary` is the fold itself: the one reader that knows
what each manifest record kind means. ``WatchState`` is that fold plus
an alert evaluator and the dashboard renderer; ``repro-edge doctor``
(:mod:`repro.bench.doctor`) renders its post-mortem from the same fold,
and :func:`repro.diagnostics.summarize_convergence` computes through its
:class:`ConvergenceSummary`.

The watch runs its own :class:`repro.telemetry.alerting.AlertEvaluator`
over the tailed events, so rules fire even for manifests recorded
*without* in-process alerting; alerts already present in the file are
merged in (deduplicated by rule and slot). ``watch(..., strict=True)`` — the CLI's
``--strict`` — turns any alert into a nonzero exit code, which makes the
watcher usable as a CI canary over a long-running job.
"""

from __future__ import annotations

import json
import sys
import time
from bisect import insort
from dataclasses import asdict, dataclass
from pathlib import Path

from .alerting import DEFAULT_GAP_TOL, Alert, AlertEvaluator, Rule, default_rules
from .metrics import Histogram

#: ANSI sequence that clears the screen and homes the cursor.
CLEAR_SCREEN = "\x1b[2J\x1b[H"

#: How many alerts and runs the dashboard lists before eliding.
MAX_LISTED = 6

#: How many worst offenders (or first occurrences) the fold keeps per list.
TOP_N = 5


class ManifestTail:
    """Incrementally read new complete JSON lines from a growing file.

    Each :meth:`poll` picks up where the previous one stopped. A trailing
    line without a newline (a write in progress) is buffered until its
    remainder arrives, so torn writes never surface as parse errors; a
    *complete* line that still fails to parse as a JSON object is counted
    in ``corrupt_lines`` and skipped.

    Attributes:
        is_manifest: ``None`` until the first complete line arrives, then
            whether that line was a ``manifest_start`` record.
    """

    def __init__(self, path: str | Path) -> None:
        """Tail ``path`` (which may not exist yet) from its beginning."""
        self.path = Path(path)
        self.corrupt_lines = 0
        self.is_manifest: bool | None = None
        self._position = 0
        self._partial = ""

    def poll(self) -> list[dict]:
        """Return every complete record appended since the last poll."""
        try:
            with self.path.open("r", encoding="utf-8", errors="replace") as handle:
                handle.seek(self._position)
                chunk = handle.read()
                self._position = handle.tell()
        except FileNotFoundError:
            return []
        if not chunk:
            return []
        lines = (self._partial + chunk).split("\n")
        self._partial = lines.pop()  # "" when the chunk ended on a newline
        records = []
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                record = None
            if self.is_manifest is None:
                self.is_manifest = (
                    isinstance(record, dict)
                    and record.get("type") == "manifest_start"
                )
            if isinstance(record, dict):
                records.append(record)
            else:
                self.corrupt_lines += 1
        return records


@dataclass
class ConvergenceSummary:
    """Aggregate view of every recorded interior-point solve.

    Folded one ``solver.ipm.trace`` event at a time by :meth:`add`: the one
    copy of the IPM-trace arithmetic, read by the doctor's convergence
    section, the watch's solver line and
    :func:`repro.diagnostics.summarize_convergence`.

    Attributes:
        solves: number of ``solver.ipm.trace`` events seen.
        total_iterations: summed iterations across solves.
        max_iterations: iterations of the heaviest solve.
        mean_iterations: mean iterations per solve (0 when empty).
        max_final_mu: largest terminal average complementarity (how
            "unfinished" the loosest solve was).
        max_final_gap: largest terminal certified relative duality gap —
            ~0.1 * tol at convergence; budget-truncated solves report how
            far from optimal their partial point was left.
        uncertified: solves whose terminal certified gap exceeds the
            certificate tolerance (``DEFAULT_GAP_TOL``) — 0 unless budgets
            truncated solves or the solver stalled.
    """

    solves: int = 0
    total_iterations: int = 0
    max_iterations: int = 0
    mean_iterations: float = 0.0
    max_final_mu: float = 0.0
    max_final_gap: float = 0.0
    uncertified: int = 0

    def add(self, event: dict) -> None:
        """Fold one ``solver.ipm.trace`` event."""
        iterations = int(event.get("iterations", 0))
        gap = float(event.get("gap_final", 0.0))
        self.solves += 1
        self.total_iterations += iterations
        self.mean_iterations = self.total_iterations / self.solves
        self.max_iterations = max(self.max_iterations, iterations)
        self.max_final_mu = max(self.max_final_mu, float(event.get("mu_final", 0.0)))
        self.max_final_gap = max(self.max_final_gap, gap)
        self.uncertified += gap > DEFAULT_GAP_TOL

    def as_dict(self) -> dict:
        """Plain-dict form for bench records and manifest events."""
        return asdict(self)


class TopN:
    """The first ``size`` items offered or, with a ``key``, the ``size``
    ranking highest: exactly ``sorted(items, key=key, reverse=True)[:size]``,
    ties in arrival order. ``count`` is how many items were offered."""

    def __init__(self, size: int = TOP_N, key=None) -> None:
        """Keep ``size`` items, ranked by ``key`` unless it is None."""
        self.size = size
        self.key = key
        self.items: list = []
        self.count = 0

    def add(self, item) -> None:
        """Offer one item."""
        self.count += 1
        if self.key is None:
            self.items.append(item)
        else:
            insort(self.items, item, key=lambda kept: -self.key(kept))
        del self.items[self.size:]


class _RunView:
    """Running totals for one ``(cell, run)`` as its slot events stream in.

    ``incomplete`` counts slot records missing a cost field. Once the
    run's ``run_end`` arrives, ``ended`` is its position among the
    manifest's ``run_end`` records and ``reported`` its ``totals``.
    """

    def __init__(self, algorithm: str) -> None:
        self.algorithm = algorithm
        self.slots = 0
        self.costs = {"op": 0.0, "sq": 0.0, "rc": 0.0, "mg": 0.0, "total": 0.0}
        self.incomplete = 0
        self.ended: int | None = None
        self.reported: dict | None = None

    @property
    def finished(self) -> bool:
        return self.ended is not None

    def add_slot(self, record: dict) -> None:
        self.slots += 1
        self.incomplete += not self.costs.keys() <= record.keys()
        for key in self.costs:
            self.costs[key] += float(record.get(key, 0.0))


class ManifestSummary:
    """What a manifest says, folded record by record.

    The one place that knows what each manifest record kind means. Feed
    records in file order via :meth:`update` — ``manifest_start``, the
    events, the trailing ``metrics`` snapshot, ``manifest_end`` — and read
    the totals off the attributes. State does not grow with the number of
    slots: counters, histograms, per-run and per-name maps, and
    :class:`TopN` lists of the worst offenders and first occurrences.
    Unknown kinds count as events and are otherwise ignored.
    """

    def __init__(self, gap_tol: float = DEFAULT_GAP_TOL) -> None:
        """Create an empty fold; ``gap_tol`` flags certificate violations."""
        self.gap_tol = gap_tol
        self.config: dict = {}
        self.environment: dict = {}
        self.started = False
        self.done = False
        self.counters: dict = {}
        self.gauges: dict = {}
        self.histograms: dict = {}
        self.events = 0
        self.runs: dict[tuple, _RunView] = {}
        self.run_ends = 0
        self.wall = Histogram("slot.wall_ms")
        self.slowest_slots = TopN(key=lambda e: float(e["wall_ms"]))
        self.convergence = ConvergenceSummary()
        self.unconverged_traces = 0
        self.certificates = TopN(key=lambda e: float(e.get("relative_gap", 0.0)))
        self.certificate_violations = 0
        self.ratio: float | None = None
        self.ratio_bound: float | None = None
        self.ratio_worst: float | None = None
        self.ratio_certified: bool | None = None
        self.ratio_traces: list[dict] = []
        self.ratio_violations = TopN()
        self.agg_slots = 0
        self.agg_cohorts = 0
        self.agg_reduction: float | None = None
        self.agg_sizes = Histogram("aggregate.cohorts")
        self.agg_reductions = Histogram("aggregate.reduction")
        self.agg_spreads = Histogram("aggregate.spread")
        self.agg_bounds = Histogram("aggregate.bound")
        self.agg_errors = Histogram("aggregate.disagg_error")
        self.service_misses = 0
        self.service_latency = Histogram("service.slot_latency_ms")
        self.deadline_misses = TopN()
        self.profiles = TopN(3, key=lambda e: float(e.get("wall_ms", 0.0)))
        self.profiled_ms = 0.0
        self.phase_latency: dict[str, Histogram] = {}
        self.inline_fallbacks = TopN()
        self.slo_burn: dict[str, dict] = {}
        self.slo_firing: set[str] = set()
        self.slo_transitions = 0
        self.slo_resolved = 0
        self.bundles: dict[str, str] = {}
        self.recorded_alerts = TopN()
        self.alert_rules: dict[str, int] = {}

    # ----- folding ------------------------------------------------------------

    def update(self, record: dict) -> bool:
        """Fold one manifest record; return whether it was a run event.

        The framing records (``manifest_start``, ``metrics``, ``spans``,
        ``manifest_end``) return ``False``; every other record, unknown
        kinds included, counts as an event.
        """
        kind = record.get("type")
        if kind == "manifest_start":
            self.started = True
            self.config = record.get("config", {})
            self.environment = record.get("environment", {})
            return False
        if kind == "metrics":
            self.counters = record.get("counters", {})
            self.gauges = record.get("gauges", {})
            self.histograms = record.get("histograms", {})
            return False
        if kind == "manifest_end":
            self.done = True
            return False
        if kind == "spans":
            return False
        self.events += 1
        if kind == "slot":
            if "wall_ms" in record:
                self.wall.observe(float(record["wall_ms"]))
                self.slowest_slots.add(record)
            self._run(record).add_slot(record)
        elif kind == "run_end":
            view = self._run(record)
            view.ended = self.run_ends
            view.reported = record.get("totals")
            self.run_ends += 1
        elif kind == "solver.ipm.trace":
            self.convergence.add(record)
            self.unconverged_traces += bool(record.get("unconverged"))
        elif kind == "diag.certificate":
            self.certificates.add(record)
            gap = float(record.get("relative_gap", 0.0))
            self.certificate_violations += gap > self.gap_tol
        elif kind == "diag.ratio.point":
            self.ratio = float(record.get("ratio", 0.0))
            self.ratio_bound = float(record.get("bound", 0.0))
        elif kind == "diag.ratio.trace":
            self.ratio = float(record.get("final_ratio", 0.0))
            self.ratio_bound = float(record.get("bound", 0.0))
            self.ratio_worst = float(record.get("worst_ratio", 0.0))
            self.ratio_certified = bool(record.get("certified", False))
            self.ratio_traces.append(record)
        elif kind == "diag.ratio.violation":
            self.ratio_violations.add(record)
        elif kind == "aggregate.slot":
            self._on_aggregate(record)
        elif kind == "service.slot":
            self.service_latency.observe(float(record.get("latency_ms", 0.0)))
            self.service_misses += bool(record.get("deadline_miss"))
        elif kind == "service.deadline.miss":
            self.deadline_misses.add(record)
        elif kind == "prof.phases":
            self._on_profile(record)
        elif kind == "parallel.fallback.inline":
            self.inline_fallbacks.add(record)
        elif kind == "slo.burn":
            name = str(record.get("objective", "?"))
            self.slo_burn[name] = record
            self.slo_transitions += 1
            self.slo_resolved += record.get("state") == "resolved"
            if record.get("state") == "firing":
                self.slo_firing.add(name)
            else:
                self.slo_firing.discard(name)
        elif kind == "incident.written":
            self.bundles.setdefault(
                str(record.get("path", "?")),
                str(record.get("rule") or record.get("reason", "?")),
            )
        elif kind == "alert":
            self._recorded(
                Alert(
                    rule=str(record.get("rule", "?")),
                    message=str(record.get("message", "")),
                    slot=record.get("slot"),
                    value=record.get("value"),
                    threshold=record.get("threshold"),
                )
            )
        return True

    @property
    def unconverged(self) -> int:
        """Unconverged solves, counted by ``metrics`` or, in a run killed
        before it, by the flags of ``solver.ipm.trace`` events."""
        counted = int(self.counters.get("solver.ipm.unconverged", 0))
        return max(counted, self.unconverged_traces)

    def update_all(self, records) -> None:
        """Fold many records (a :meth:`ManifestTail.poll` batch)."""
        for record in records:
            self.update(record)

    def _run(self, record: dict) -> _RunView:
        cell = record.get("cell")
        if isinstance(cell, list):  # JSON round-trips tuples as lists
            cell = tuple(cell)
        key = (cell, record.get("run"))
        view = self.runs.get(key)
        if view is None:
            view = self.runs[key] = _RunView(str(record.get("algorithm", "?")))
        return view

    def _on_aggregate(self, record: dict) -> None:
        self.agg_slots += 1
        self.agg_cohorts = int(record.get("cohorts", 0))
        self.agg_reduction = float(record.get("reduction", 1.0))
        self.agg_sizes.observe(self.agg_cohorts)
        self.agg_reductions.observe(self.agg_reduction)
        self.agg_spreads.observe(float(record.get("spread", 0.0)))
        self.agg_bounds.observe(float(record.get("bound", 0.0)))
        if record.get("disagg_error") is not None:
            self.agg_errors.observe(float(record["disagg_error"]))

    def _on_profile(self, record: dict) -> None:
        self.profiles.add(record)
        self.profiled_ms += float(record.get("wall_ms", 0.0))
        for name, ms in (record.get("phases") or {}).items():
            histogram = self.phase_latency.get(str(name))
            if histogram is None:
                histogram = self.phase_latency[str(name)] = Histogram(
                    f"prof.phase_ms.{name}"
                )
            histogram.observe(float(ms))

    def _recorded(self, alert: Alert) -> None:
        """Count one ``alert`` record found in the manifest."""
        self.recorded_alerts.add(alert)
        self.alert_rules[alert.rule] = self.alert_rules.get(alert.rule, 0) + 1

    # ----- derived ------------------------------------------------------------

    @property
    def total_slots(self) -> int:
        """Slot events folded so far, across every run."""
        return sum(view.slots for view in self.runs.values())

    @property
    def totals(self) -> dict[str, float]:
        """The running four-component (plus weighted total) cost sums."""
        totals = {"op": 0.0, "sq": 0.0, "rc": 0.0, "mg": 0.0, "total": 0.0}
        for view in self.runs.values():
            for key, value in view.costs.items():
                totals[key] += value
        return totals

    @property
    def service_slots(self) -> int:
        """``service.slot`` events folded so far."""
        return self.service_latency.count

    @property
    def incidents(self) -> list[str]:
        """Incident bundle paths written, each listed once, in file order."""
        return list(self.bundles)


class WatchState(ManifestSummary):
    """The dashboard: the manifest fold, live alerting, and a renderer.

    Feed records via :meth:`update` (in file order); read the rendered
    dashboard from :meth:`render`. The embedded evaluator re-evaluates
    the rule set over the stream, and ``alert`` records already present in
    the manifest are merged in, deduplicated by ``(rule, slot)``.
    """

    def __init__(self, rules: "tuple[Rule, ...] | list | None" = None) -> None:
        """Create an empty state evaluating ``rules`` (default set if None)."""
        super().__init__()
        self.evaluator = AlertEvaluator(default_rules() if rules is None else rules)
        self.alerts: list[Alert] = []
        self._alert_keys: set[tuple] = set()

    def update(self, record: dict) -> bool:
        """Fold one record, then run it past the evaluator if it is an event."""
        if not super().update(record):
            return False
        fired = len(self.evaluator.alerts)
        self.evaluator.observe(record)
        for alert in self.evaluator.alerts[fired:]:
            self._add_alert(alert)
        return True

    def _recorded(self, alert: Alert) -> None:
        super()._recorded(alert)
        self._add_alert(alert)

    def _add_alert(self, alert: Alert) -> None:
        key = (alert.rule, alert.slot)
        if key in self._alert_keys:
            return
        self._alert_keys.add(key)
        self.alerts.append(alert)

    # ----- rendering ----------------------------------------------------------

    def render(self, *, title: str = "") -> str:
        """The dashboard as plain text (one frame of the watch loop)."""
        status = "COMPLETE" if self.done else ("LIVE" if self.started else "WAITING")
        lines = [f"repro-edge watch{f' - {title}' if title else ''}  [{status}]"]
        if self.config:
            shown = ", ".join(
                f"{key}={value}"
                for key, value in sorted(self.config.items())
                if value is not None and not callable(value)
            )
            lines.append(f"  config : {shown}")
        running = sum(1 for v in self.runs.values() if not v.finished)
        lines.append(
            f"  slots  : {self.total_slots} done across {len(self.runs)} run(s)"
            f" ({running} in flight), {self.events} events"
        )
        if self.wall.count:
            lines.append(
                "  wall   : "
                f"p50 {self.wall.percentile(0.50):.2f} ms  "
                f"p95 {self.wall.percentile(0.95):.2f} ms  "
                f"max {self.wall.maximum:.2f} ms"
            )
        totals = self.totals
        lines.append(
            "  cost   : "
            f"op {totals['op']:.3f}  sq {totals['sq']:.3f}  "
            f"rc {totals['rc']:.3f}  mg {totals['mg']:.3f}  "
            f"total {totals['total']:.3f}"
        )
        unconverged = f", {self.unconverged} unconverged" if self.unconverged else ""
        lines.append(
            "  solver : "
            f"{self.convergence.total_iterations} iterations / "
            f"{self.convergence.solves} solves{unconverged}"
        )
        if self.ratio is not None and self.ratio_bound is not None:
            certified = (
                ""
                if self.ratio_certified is None
                else f"  certified: {self.ratio_certified}"
            )
            worst = (
                ""
                if self.ratio_worst is None
                else f"  worst prefix {self.ratio_worst:.4f}"
            )
            lines.append(
                f"  ratio  : {self.ratio:.4f} vs bound "
                f"{self.ratio_bound:.4f}{worst}{certified}"
            )
        else:
            lines.append("  ratio  : (no diag.ratio feed in this manifest)")
        if self.agg_slots:
            error = (
                f"  worst gap {self.agg_errors.maximum:.2e}"
                if self.agg_errors.count
                else ""
            )
            lines.append(
                f"  agg    : {self.agg_slots} slot(s), "
                f"{self.agg_cohorts} cohorts "
                f"({self.agg_reduction:.1f}x reduction), "
                f"error bound {self.agg_bounds.maximum:.3f}{error}"
            )
        if self.service_slots:
            lines.append(
                "  svc    : "
                f"{self.service_slots} request(s)  "
                f"p50 {self.service_latency.percentile(0.50):.2f} ms  "
                f"p95 {self.service_latency.percentile(0.95):.2f} ms  "
                f"{self.service_misses} deadline miss(es)"
            )
        if self.phase_latency:
            ranked = sorted(
                self.phase_latency.items(),
                key=lambda kv: (-kv[1].percentile(0.95), kv[0]),
            )
            shown = "  ".join(
                f"{name} p95 {histogram.percentile(0.95):.2f} ms"
                for name, histogram in ranked[:3]
            )
            lines.append(f"  phases : {shown}")
        if self.slo_burn:
            firing = sorted(self.slo_firing)
            summary = "FIRING " + ", ".join(firing) if firing else "healthy"
            lines.append(
                f"  slo    : {len(self.slo_burn)} objective(s) tracked  "
                f"{summary}"
            )
            for name in firing[:MAX_LISTED]:
                burn = self.slo_burn.get(name, {})
                lines.append(
                    f"    [{name}] burn fast "
                    f"{float(burn.get('fast_burn', 0.0)):.1f}x  slow "
                    f"{float(burn.get('slow_burn', 0.0)):.1f}x  "
                    f"(budget {float(burn.get('budget', 0.0)):g})"
                )
        if self.bundles:
            lines.append(f"  incid  : {len(self.bundles)} bundle(s) written")
            for path in self.incidents[:MAX_LISTED]:
                lines.append(f"    {path}")
        if self.alerts:
            lines.append(f"  alerts : {len(self.alerts)}")
            for alert in self.alerts[:MAX_LISTED]:
                where = "" if alert.slot is None else f" slot {alert.slot}:"
                lines.append(f"    [{alert.rule}]{where} {alert.message}")
            if len(self.alerts) > MAX_LISTED:
                lines.append(f"    ... {len(self.alerts) - MAX_LISTED} more")
        else:
            lines.append("  alerts : none")
        for key, view in list(self.runs.items())[:MAX_LISTED]:
            state = "done" if view.finished else "running"
            lines.append(
                f"    {view.algorithm:20s} {view.slots:5d} slots  "
                f"total {view.costs['total']:12.3f}  [{state}]"
            )
        if len(self.runs) > MAX_LISTED:
            lines.append(f"    ... {len(self.runs) - MAX_LISTED} more run(s)")
        return "\n".join(lines)


def watch(
    path: str | Path,
    *,
    interval: float = 0.5,
    follow: bool = True,
    strict: bool = False,
    timeout: float | None = None,
    rules: "tuple[Rule, ...] | list | None" = None,
    stream=None,
) -> int:
    """Tail a manifest and render the live dashboard until the run ends.

    Args:
        path: the (possibly still-growing, possibly not-yet-existing)
            manifest file.
        interval: seconds between polls in follow mode.
        follow: keep polling until ``manifest_end`` arrives (or timeout /
            Ctrl-C); ``False`` renders the current state once and returns
            (the CLI's ``--once``).
        strict: exit nonzero when any alert fired.
        timeout: give up following after this many seconds.
        rules: alerting rules to evaluate over the stream
            (:func:`~repro.telemetry.alerting.default_rules` when ``None``).
        stream: output text stream (defaults to ``sys.stdout``); frames
            are preceded by an ANSI clear when it is a TTY and separated
            by a blank line otherwise.

    Returns:
        Process exit code: 1 when ``strict`` and alerts fired, else 0.

    Raises:
        ValueError: the file's first complete line is not a
            ``manifest_start`` record (an incident bundle, say) — such a
            file would never reach ``manifest_end``. A missing or still
            empty file is waited for instead.
    """
    out = stream if stream is not None else sys.stdout
    tail = ManifestTail(path)
    state = WatchState(rules)
    is_tty = bool(getattr(out, "isatty", lambda: False)())
    deadline = None if timeout is None else time.monotonic() + timeout
    first_frame = True
    try:
        while True:
            records = tail.poll()
            if tail.is_manifest is False:
                raise ValueError(
                    f"{path}: not a run manifest "
                    "(its first record is not manifest_start)"
                )
            state.update_all(records)
            prefix = CLEAR_SCREEN if is_tty else ("" if first_frame else "\n")
            out.write(prefix + state.render(title=str(path)) + "\n")
            out.flush()
            first_frame = False
            if state.done or not follow:
                break
            if deadline is not None and time.monotonic() >= deadline:
                break
            time.sleep(interval)
    except KeyboardInterrupt:
        out.write("(watch interrupted)\n")
    if strict and state.alerts:
        return 1
    return 0
