"""Baseline comparison: gate benchmark records against a committed one.

Every metric is lower-is-better; a metric *regresses* when its current
value exceeds the baseline by more than its kind's allowance:

* ``time``   — relative ``threshold`` (default 10%; CI uses 25% because
  shared runners are noisy). Advisory by design: flag, don't fail, unless
  the caller asks (``gate_time=True``).
* ``count``  — relative ``count_rtol`` (default 2%). Iteration counts are
  deterministic at fixed scale and seed, so any real movement means the
  solver's behaviour changed.
* ``cost``   — relative ``cost_rtol`` (default 1e-6, solver tolerance),
  against the scale ``max(1, |baseline|)`` — the repo's relative-gap
  convention, which keeps near-zero baselines (duality gaps) gateable.
  Objectives and ratios must not move at all beyond numerical noise.

Comparing a record against itself therefore always yields zero
regressions — the round-trip invariant ``tests/bench`` pins.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .records import BenchRecord

#: Default relative allowance for wall-clock metrics.
DEFAULT_TIME_THRESHOLD = 0.10
#: Default relative allowance for deterministic work counts.
DEFAULT_COUNT_RTOL = 0.02
#: Default relative allowance for objective/ratio metrics.
DEFAULT_COST_RTOL = 1e-6


@dataclass(frozen=True)
class MetricDelta:
    """One metric's baseline-vs-current movement.

    Attributes:
        name: metric name.
        kind: gating class of the metric (``time``/``count``/``cost``).
        baseline: baseline value.
        current: current value.
        allowance: the relative allowance that was applied.
        regressed: current exceeded baseline beyond the allowance.
    """

    name: str
    kind: str
    baseline: float
    current: float
    allowance: float
    regressed: bool

    @property
    def relative_change(self) -> float:
        """Signed relative change vs the baseline (0 when baseline is 0)."""
        if self.baseline == 0.0:
            return 0.0 if self.current == 0.0 else float("inf")
        return (self.current - self.baseline) / abs(self.baseline)


@dataclass(frozen=True)
class CompareReport:
    """The comparator's verdict, renderable and gateable.

    ``ok`` is the CI gate: no gated regressions and no metrics missing
    from the current record. Time regressions count only when
    ``gate_time`` was set; they are always *listed*.
    """

    baseline_suite: str
    deltas: list[MetricDelta] = field(default_factory=list)
    missing: list[str] = field(default_factory=list)
    added: list[str] = field(default_factory=list)
    gated_kinds: tuple[str, ...] = ("count", "cost")

    @property
    def regressions(self) -> list[MetricDelta]:
        """Every regressed metric, gated or not."""
        return [d for d in self.deltas if d.regressed]

    @property
    def gated_regressions(self) -> list[MetricDelta]:
        """Regressions in kinds the caller chose to fail on."""
        return [d for d in self.regressions if d.kind in self.gated_kinds]

    @property
    def ok(self) -> bool:
        """Whether the current record passes the gate."""
        return not self.gated_regressions and not self.missing

    def render(self) -> str:
        """Human-readable comparison table."""
        lines = [f"Benchmark comparison vs baseline ({self.baseline_suite})"]
        for delta in self.deltas:
            change = delta.relative_change
            status = "REGRESSED" if delta.regressed else "ok"
            if delta.regressed and delta.kind not in self.gated_kinds:
                status = "regressed (advisory)"
            lines.append(
                f"  {delta.name:28s} {delta.kind:5s} "
                f"{delta.baseline:12.6g} -> {delta.current:12.6g} "
                f"({change:+8.2%})  {status}"
            )
        for name in self.missing:
            lines.append(f"  {name:28s} MISSING from current record")
        for name in self.added:
            lines.append(f"  {name:28s} new metric (no baseline)")
        verdict = "PASS" if self.ok else "FAIL"
        lines.append(
            f"  => {verdict}: {len(self.gated_regressions)} gated regression(s),"
            f" {len(self.regressions)} total, {len(self.missing)} missing"
        )
        return "\n".join(lines)


def compare_records(
    baseline: BenchRecord,
    current: BenchRecord,
    *,
    time_threshold: float = DEFAULT_TIME_THRESHOLD,
    count_rtol: float = DEFAULT_COUNT_RTOL,
    cost_rtol: float = DEFAULT_COST_RTOL,
    gate_time: bool = False,
) -> CompareReport:
    """Compare a current record against a baseline.

    Args:
        baseline: the committed reference record.
        current: the fresh run.
        time_threshold: relative allowance for ``time`` metrics.
        count_rtol: relative allowance for ``count`` metrics.
        cost_rtol: relative allowance for ``cost`` metrics.
        gate_time: also fail the gate on time regressions (off by default:
            wall time on shared hardware is advisory).

    Raises:
        ValueError: when the records belong to different suites or ran
            with different ``config`` (scale, seed, eps): their metrics
            measure different work, so no delta between them means
            anything.
    """
    if baseline.suite != current.suite:
        raise ValueError(
            f"suite mismatch: baseline {baseline.suite!r}"
            f" vs current {current.suite!r}"
        )
    differing = sorted(
        key
        for key in baseline.config.keys() | current.config.keys()
        if baseline.config.get(key) != current.config.get(key)
    )
    if differing:
        raise ValueError(
            "config mismatch: "
            + ", ".join(
                f"{key} baseline {baseline.config.get(key)!r}"
                f" vs current {current.config.get(key)!r}"
                for key in differing
            )
        )
    allowances = {
        "time": time_threshold,
        "count": count_rtol,
        "cost": cost_rtol,
    }
    deltas = []
    for name, base in baseline.metrics.items():
        if name not in current.metrics:
            continue
        now = current.metrics[name]
        allowance = allowances.get(base.kind, cost_rtol)
        # Cost metrics use the repo-wide relative-gap convention
        # ``max(1, |value|)`` as the scale, so a near-zero baseline (e.g.
        # a duality gap of 3e-8) gets an absolute allowance of cost_rtol
        # rather than an untestable 3e-14.
        floor = 1.0 if base.kind == "cost" else 1e-12
        limit = base.value + allowance * max(abs(base.value), floor)
        deltas.append(
            MetricDelta(
                name=name,
                kind=base.kind,
                baseline=base.value,
                current=now.value,
                allowance=allowance,
                regressed=now.value > limit,
            )
        )
    gated = ("time", "count", "cost") if gate_time else ("count", "cost")
    return CompareReport(
        baseline_suite=baseline.suite,
        deltas=deltas,
        missing=sorted(set(baseline.metrics) - set(current.metrics)),
        added=sorted(set(current.metrics) - set(baseline.metrics)),
        gated_kinds=gated,
    )
