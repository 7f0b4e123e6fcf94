"""``repro-edge watch``: tail a streaming manifest, render live run state.

A run started with a :class:`repro.telemetry.sinks.StreamingManifestWriter`
(e.g. ``repro-edge fig2 --telemetry run.jsonl --stream``) appends one
JSON line per event as it happens. This module follows such a file the
way ``tail -f`` would — :class:`ManifestTail` reads only the bytes added
since the last poll and never trips over a torn (mid-write) trailing
line — folds every record into a :class:`WatchState`, and renders a
refreshing terminal dashboard: slots done, per-slot wall p50/p95, the
running four-component cost, solver iterations and fallback/circuit
state, the empirical competitive ratio against the certified ``1+γ|I|``
bound, and alerts.

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
from pathlib import Path

from .alerting import Alert, AlertEvaluator, Rule, default_rules
from .metrics import Histogram

#: ANSI sequence that clears the screen and homes the cursor.
CLEAR_SCREEN = "\x1b[2J\x1b[H"

#: How many alerts and runs the dashboard lists before eliding.
MAX_LISTED = 6


class ManifestTail:
    """Incrementally read new complete JSON lines from a growing file.

    Each :meth:`poll` picks up where the previous one stopped. A trailing
    line without a newline (a write in progress) is buffered until its
    remainder arrives, so torn writes never surface as parse errors; a
    *complete* line that still fails to parse is counted in
    ``corrupt_lines`` and skipped.
    """

    def __init__(self, path: str | Path) -> None:
        """Tail ``path`` (which may not exist yet) from its beginning."""
        self.path = Path(path)
        self.corrupt_lines = 0
        self._position = 0
        self._partial = ""

    def poll(self) -> list[dict]:
        """Return every complete record appended since the last poll."""
        try:
            with self.path.open("r", encoding="utf-8") as handle:
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
                records.append(json.loads(line))
            except json.JSONDecodeError:
                self.corrupt_lines += 1
        return records


class _RunView:
    """Running totals for one ``(cell, run)`` as its slot events stream in."""

    def __init__(self, algorithm: str) -> None:
        self.algorithm = algorithm
        self.slots = 0
        self.costs = {"op": 0.0, "sq": 0.0, "rc": 0.0, "mg": 0.0, "total": 0.0}
        self.finished = False

    def add_slot(self, record: dict) -> None:
        self.slots += 1
        for key in self.costs:
            self.costs[key] += float(record.get(key, 0.0))


class WatchState:
    """Everything the dashboard shows, folded incrementally from records.

    Feed records via :meth:`update` (in file order); read the rendered
    dashboard from :meth:`render`. The embedded evaluator re-evaluates
    the rule set over the stream, and ``alert`` records already present in
    the manifest are merged in, deduplicated by ``(rule, slot)``.
    """

    def __init__(self, rules: "tuple[Rule, ...] | list | None" = None) -> None:
        """Create an empty state evaluating ``rules`` (default set if None)."""
        self.config: dict = {}
        self.started = False
        self.done = False
        self.events = 0
        self.wall = Histogram("slot.wall_ms")
        self.runs: dict[tuple, _RunView] = {}
        self.solver_solves = 0
        self.solver_iterations = 0
        self.fallbacks = 0
        self.circuit_opens = 0
        self.ratio: float | None = None
        self.ratio_bound: float | None = None
        self.ratio_worst: float | None = None
        self.ratio_certified: bool | None = None
        self.agg_slots = 0
        self.agg_cohorts = 0
        self.agg_reduction: float | None = None
        self.agg_bound: float | None = None
        self.agg_error_worst: float | None = None
        self.service_slots = 0
        self.service_misses = 0
        self.service_latency = Histogram("service.slot_latency_ms")
        self.phase_latency: dict[str, Histogram] = {}
        self.evaluator = AlertEvaluator(default_rules() if rules is None else rules)
        self.alerts: list[Alert] = []
        self._alert_keys: set[tuple] = set()
        self.slo_burn: dict[str, dict] = {}
        self.slo_firing: set[str] = set()
        self.incidents: list[str] = []

    # ----- folding ------------------------------------------------------------

    def update(self, record: dict) -> None:
        """Fold one manifest record into the state."""
        kind = record.get("type")
        if kind == "manifest_start":
            self.started = True
            self.config = record.get("config", {})
            return
        if kind == "manifest_end":
            self.done = True
            return
        if kind in ("metrics", "spans"):
            return
        self.events += 1
        if kind == "slot":
            self._on_slot(record)
        elif kind == "run_end":
            key = self._run_key(record)
            view = self.runs.get(key)
            if view is None:
                view = self.runs[key] = _RunView(str(record.get("algorithm", "?")))
            view.finished = True
        elif kind == "solver.ipm.trace":
            self.solver_solves += 1
            self.solver_iterations += int(record.get("iterations", 0))
        elif kind == "solver.fallback":
            self.fallbacks += 1
        elif kind == "solver.circuit_open":
            self.circuit_opens += 1
        elif kind == "aggregate.slot":
            self.agg_slots += 1
            self.agg_cohorts = int(record.get("cohorts", 0))
            self.agg_reduction = float(record.get("reduction", 1.0))
            # Worst-over-run, matching the doctor's Aggregation section
            # (a last-slot bound next to a worst-gap reads inconsistently).
            bound = float(record.get("bound", 0.0))
            if self.agg_bound is None or bound > self.agg_bound:
                self.agg_bound = bound
            error = record.get("disagg_error")
            if error is not None:
                error = float(error)
                if self.agg_error_worst is None or error > self.agg_error_worst:
                    self.agg_error_worst = error
        elif kind == "service.slot":
            self.service_slots += 1
            self.service_latency.observe(float(record.get("latency_ms", 0.0)))
            if record.get("deadline_miss"):
                self.service_misses += 1
        elif kind == "prof.phases":
            for name, ms in (record.get("phases") or {}).items():
                histogram = self.phase_latency.get(str(name))
                if histogram is None:
                    histogram = self.phase_latency[str(name)] = Histogram(
                        f"prof.phase_ms.{name}"
                    )
                histogram.observe(float(ms))
        elif kind == "diag.ratio.point":
            self.ratio = float(record.get("ratio", 0.0))
            self.ratio_bound = float(record.get("bound", 0.0))
        elif kind == "diag.ratio.trace":
            self.ratio = float(record.get("final_ratio", 0.0))
            self.ratio_bound = float(record.get("bound", 0.0))
            self.ratio_worst = float(record.get("worst_ratio", 0.0))
            self.ratio_certified = bool(record.get("certified", False))
        elif kind == "slo.burn":
            name = str(record.get("objective", "?"))
            self.slo_burn[name] = dict(record)
            if record.get("state") == "firing":
                self.slo_firing.add(name)
            else:
                self.slo_firing.discard(name)
        elif kind == "incident.written":
            path = str(record.get("path", "?"))
            if path not in self.incidents:
                self.incidents.append(path)
        elif kind == "alert":
            self._add_alert(
                Alert(
                    rule=str(record.get("rule", "?")),
                    message=str(record.get("message", "")),
                    slot=record.get("slot"),
                    value=record.get("value"),
                    threshold=record.get("threshold"),
                )
            )
        fired = len(self.evaluator.alerts)
        self.evaluator.observe(record)
        for alert in self.evaluator.alerts[fired:]:
            self._add_alert(alert)

    def update_all(self, records) -> None:
        """Fold many records (a :meth:`ManifestTail.poll` batch)."""
        for record in records:
            self.update(record)

    def _on_slot(self, record: dict) -> None:
        if "wall_ms" in record:
            self.wall.observe(float(record["wall_ms"]))
        key = self._run_key(record)
        view = self.runs.get(key)
        if view is None:
            view = self.runs[key] = _RunView(str(record.get("algorithm", "?")))
        view.add_slot(record)

    @staticmethod
    def _run_key(record: dict) -> tuple:
        cell = record.get("cell")
        if isinstance(cell, list):  # JSON round-trips tuples as lists
            cell = tuple(cell)
        return (cell, record.get("run"))

    def _add_alert(self, alert: Alert) -> None:
        key = (alert.rule, alert.slot)
        if key in self._alert_keys:
            return
        self._alert_keys.add(key)
        self.alerts.append(alert)

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
        lines.append(
            "  solver : "
            f"{self.solver_iterations} iterations / {self.solver_solves} solves, "
            f"{self.fallbacks} fallback(s), "
            f"{self.circuit_opens} circuit-open(s)"
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
                ""
                if self.agg_error_worst is None
                else f"  worst gap {self.agg_error_worst:.2e}"
            )
            lines.append(
                f"  agg    : {self.agg_slots} slot(s), "
                f"{self.agg_cohorts} cohorts "
                f"({self.agg_reduction:.1f}x reduction), "
                f"error bound {self.agg_bound:.3f}{error}"
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
        if self.incidents:
            lines.append(f"  incid  : {len(self.incidents)} bundle(s) written")
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
    """
    out = stream if stream is not None else sys.stdout
    tail = ManifestTail(path)
    state = WatchState(rules)
    is_tty = bool(getattr(out, "isatty", lambda: False)())
    deadline = None if timeout is None else time.monotonic() + timeout
    first_frame = True
    try:
        while True:
            state.update_all(tail.poll())
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
