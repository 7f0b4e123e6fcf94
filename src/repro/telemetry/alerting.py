"""One alerting engine: windowed good/bad rules over the event stream.

Long-horizon runs and the live service are operated by watching a few
health signals: is a slot stalling, are the optimality certificates or
the Theorem-2 bound ``1 + γ|I|`` violated, are slots missing their
deadline? Every such check here is a :class:`Rule`: a classifier that
labels the records of one signal good or bad, plus a window over those
samples. The window decides the shape:

* a **point** rule (window 1) fires on every bad sample — a stalled
  slot, a certificate gap, a ratio over the bound;
* a **storm** rule (window ``W`` slots, ``count`` N) fires once when the
  bad samples inside the last W slots reach N — deadline-miss storms;
* a **burn-rate** rule (a ``budget``) keeps a fast and a slow window of
  samples and fires when both burn the error budget faster than their
  thresholds, resolving once the fast window recovers — the SLOs. Its
  state flips are emitted as ``slo.burn`` records, and a firing raises an
  ``slo:<name>`` alert.

One :class:`AlertEvaluator` folds records, applies the per-rule alert
cooldown and keeps the burn rates. It is hosted once per process, by
:class:`AlertSink` on the active registry's sink chain (built by
:func:`alerting_registry` inside
:func:`repro.telemetry.sinks.streaming_manifest_session`, which
``repro-edge --watchdog/--slo/--flight`` uses for every command, the
serving ones included). ``repro-edge watch`` replays manifests through
the same evaluator. The
evaluator never re-evaluates ``alert`` or ``slo.burn`` records, so a
manifest that already holds alerts cannot cascade.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass
from typing import Callable, Iterable

from .flight import FlightRecorderSink
from .metrics import Histogram, MetricsRegistry, get_registry
from .sinks import EventSink, NullSink

#: Default relative duality-gap tolerance (mirrors
#: ``repro.diagnostics.certificates.DEFAULT_GAP_TOL``; kept as a literal so
#: the telemetry leaf does not import the diagnostics layer).
DEFAULT_GAP_TOL = 1e-6

#: Default relative slack on the Theorem-2 bound (mirrors
#: ``repro.diagnostics.ratio.BOUND_RTOL``).
DEFAULT_BOUND_RTOL = 1e-9

#: Per-rule alert cooldown, in accounted slots: a point or storm rule that
#: fires again within this many slots of its last *emitted* alert is
#: suppressed (counted in ``watchdog.suppressed``, not emitted), so a
#: persistent condition cannot flood a manifest with one alert per slot.
ALERT_COOLDOWN = 25


@dataclass(frozen=True)
class Alert:
    """One rule firing.

    Attributes:
        rule: the firing rule's name (``solver-stall``, ``slo:<name>`` ...).
        message: human-readable one-liner for logs and the watch view.
        slot: the slot the rule fired on.
        value: the observed quantity that tripped the rule.
        threshold: the limit it tripped.
    """

    rule: str
    message: str
    slot: int | None = None
    value: float | None = None
    threshold: float | None = None

    def as_event(self) -> dict:
        """The ``alert`` manifest-record form of this alert (unset fields omitted)."""
        fields = {k: v for k, v in asdict(self).items() if v is not None}
        return {"type": "alert", **fields}


@dataclass(frozen=True)
class Rule:
    """A windowed good/bad classifier over one signal of the event stream.

    Attributes:
        name: the rule identifier stamped on its alerts (burn-rate rules
            alert as ``slo:<name>``).
        signal: which records are samples and what makes one bad — a key
            of :data:`SIGNALS`.
        limit: the classifier's threshold: the stall factor over the
            rolling p95, the duality-gap tolerance, the relative slack on
            the ratio bound, or the latency bound in ms.
        window: 1 for a point rule; a storm's window in slots; a
            burn-rate rule's fast window in samples.
        count: bad samples within a storm's window that fire it.
        budget: the error budget (fraction of bad samples allowed); set,
            it makes this a burn-rate rule.
        slow_window: a burn-rate rule's slow window in samples.
        fast_burn: burn-rate threshold on the fast window.
        slow_burn: burn-rate threshold on the slow window.
        min_samples: history before the rule can fire — slots seen, for
            the stall rule; samples in the fast window, for a burn rate.
    """

    name: str
    signal: str
    limit: float | None = None
    window: int = 1
    count: int = 1
    budget: float | None = None
    slow_window: int = 256
    fast_burn: float = 10.0
    slow_burn: float = 2.0
    min_samples: int = 0

    def __post_init__(self) -> None:
        if self.signal not in SIGNALS:
            raise ValueError(
                f"unknown signal {self.signal!r}; expected one of "
                f"{tuple(SIGNALS)}"
            )
        if self.window < 1 or self.count < 1:
            raise ValueError(
                f"window and count must be >= 1, got {self.window}/{self.count}"
            )
        if self.budget is not None:
            if not 0.0 < self.budget <= 1.0:
                raise ValueError(f"budget must be in (0, 1], got {self.budget}")
            if self.slow_window < self.window:
                raise ValueError(
                    "windows must satisfy 1 <= window <= slow_window, got "
                    f"{self.window}/{self.slow_window}"
                )
        if self.limit is None and self.signal in _NEEDS_LIMIT:
            raise ValueError(f"signal {self.signal!r} requires a limit")


# ----- signals ----------------------------------------------------------------
#
# A classifier maps one record to ``None`` (not a sample of its signal) or
# ``(bad, value, threshold)``; ``ev.tick`` says whether the record advanced
# the evaluator's slot clock.


def _slot_wall(rule: Rule, record: dict, ev: "AlertEvaluator"):
    if not ev.tick or ev.tick_wall is None or ev.slots <= rule.min_samples:
        return None
    p95 = ev.wall.percentile(0.95)
    if p95 is None or p95 <= 0.0:
        return None
    return ev.tick_wall > rule.limit * p95, ev.tick_wall, rule.limit * p95


def _event(rule: Rule, record: dict, ev: "AlertEvaluator"):
    return (True, None, None) if record.get("type") == rule.signal else None


def _certificate(rule: Rule, record: dict, ev: "AlertEvaluator"):
    if record.get("type") != "diag.certificate":
        return None
    gap = float(record.get("relative_gap", 0.0))
    return gap > rule.limit, gap, rule.limit


def _ratio(rule: Rule, record: dict, ev: "AlertEvaluator"):
    kind = record.get("type")
    if kind not in ("diag.ratio.point", "diag.ratio.violation"):
        return None
    ratio = float(record.get("ratio", 0.0))
    bound = float(record.get("bound", float("inf")))
    bad = kind == "diag.ratio.violation" or ratio > bound * (1.0 + rule.limit)
    return bad, ratio, bound


def _latency(rule: Rule, record: dict, ev: "AlertEvaluator"):
    if record.get("type") != "service.slot" or record.get("latency_ms") is None:
        return None
    latency = float(record["latency_ms"])
    return latency > rule.limit, latency, rule.limit


def _deadline_miss(rule: Rule, record: dict, ev: "AlertEvaluator"):
    if record.get("type") != "service.slot":
        return None
    return bool(record.get("deadline_miss", False)), None, None


def _ratio_bound(rule: Rule, record: dict, ev: "AlertEvaluator"):
    ratio, bound = record.get("ratio"), record.get("bound")
    if record.get("type") != "diag.ratio.point" or ratio is None or bound is None:
        return None
    return float(ratio) > float(bound), float(ratio), float(bound)


def _storm(noun: str) -> Callable:
    return lambda rule, count, _: (
        f"{count:g} {noun} within the last {rule.window} slots"
    )


#: Signal name -> (classifier, alert message from rule/value/threshold;
#: burn-rate signals alert with the SLO message instead).
SIGNALS: dict[str, tuple[Callable, Callable | None]] = {
    "slot-wall": (
        _slot_wall,
        lambda rule, wall, limit: (
            f"slot wall time {wall:.1f} ms exceeds {rule.limit:g} x p95 "
            f"({limit / rule.limit:.1f} ms)"
        ),
    ),
    "service.deadline.miss": (_event, _storm("deadline misses")),
    "diag.certificate": (
        _certificate,
        lambda rule, gap, tol: f"relative duality gap {gap:.3e} exceeds tol {tol:g}",
    ),
    "diag.ratio": (
        _ratio,
        lambda rule, ratio, bound: (
            f"empirical ratio {ratio:.6f} exceeds the certified bound {bound:.6f}"
        ),
    ),
    "latency": (_latency, None),
    "deadline-miss": (_deadline_miss, None),
    "ratio-bound": (_ratio_bound, None),
}

_NEEDS_LIMIT = ("slot-wall", "diag.certificate", "diag.ratio", "latency")


def default_rules() -> tuple[Rule, ...]:
    """The standard point and storm rules, at default thresholds."""
    return (
        Rule("solver-stall", "slot-wall", limit=8.0, min_samples=16),
        Rule("certificate-gap", "diag.certificate", limit=DEFAULT_GAP_TOL),
        Rule("ratio-over-bound", "diag.ratio", limit=DEFAULT_BOUND_RTOL),
        Rule("deadline-miss", "service.deadline.miss", window=25, count=3),
    )


def default_slos(*, deadline_ms: float | None = None) -> tuple[Rule, ...]:
    """The paper-centric burn-rate objectives.

    Args:
        deadline_ms: latency bound of the p99-style latency objective;
            250 ms when the run has no deadline.

    Slot latency and deadline-miss ratio each get a 1% budget over
    32/256-sample windows; the empirical competitive ratio staying under
    the Theorem 2 bound ``1 + γ|I|`` gets 0.1% and fires on the first
    measured violation.
    """
    burn = dict(window=32, budget=0.01, min_samples=8)
    latency_ms = 250.0 if deadline_ms is None else float(deadline_ms)
    return (
        Rule("latency-p99", "latency", limit=latency_ms, **burn),
        Rule("deadline-miss", "deadline-miss", **burn),
        Rule(
            "ratio-bound", "ratio-bound", window=32, budget=0.001,
            fast_burn=1.0, slow_burn=1.0, min_samples=1,
        ),
    )


class _RuleState:
    """One rule's window: bad-sample slots (storm) or good/bad flags (burn)."""

    __slots__ = ("rule", "bad_slots", "fast", "slow", "firing", "sampled")

    def __init__(self, rule: Rule) -> None:
        self.rule = rule
        self.bad_slots: deque[int] = deque()
        self.fast: deque[bool] = deque(maxlen=rule.window)
        self.slow: deque[bool] = deque(maxlen=rule.slow_window)
        self.firing = False
        self.sampled = 0

    def burn(self, window: deque[bool]) -> float:
        """Burn rate of one window: bad fraction over the error budget."""
        if not window:
            return 0.0
        return (sum(window) / len(window)) / self.rule.budget


class AlertEvaluator:
    """Evaluate rules over an event stream: alerts, cooldown, burn rates.

    The slot clock advances once per slot: on a ``slot`` record, or on a
    ``service.slot`` record no ``slot`` record announced (a stream of
    service records alone). Storm windows, the cooldown
    and the stall baseline all count slots on that clock.

    Attributes:
        rules: the rules being evaluated.
        slots: slots seen so far (the clock).
        wall: histogram of the slots' wall times (the stall baseline).
        alerts: every firing in order, including cooled-down ones.
        suppressed: alerts the cooldown kept from being emitted.
    """

    def __init__(self, rules: Iterable[Rule]) -> None:
        """Start with empty windows over ``rules``."""
        self.rules = tuple(rules)
        self.slots = 0
        self.wall = Histogram("alerts.slot_wall_ms")
        self.alerts: list[Alert] = []
        self.suppressed = 0
        self.tick = False
        self.tick_wall: float | None = None
        self._states = [_RuleState(rule) for rule in self.rules]
        self._tick_slot = None
        self._last_emitted: dict[str, int] = {}

    @property
    def active(self) -> tuple[str, ...]:
        """Names of the burn-rate rules currently firing."""
        return tuple(state.rule.name for state in self._states if state.firing)

    def burn_rates(self) -> dict[str, dict[str, float]]:
        """Current fast/slow burn rates per sampled burn-rate rule."""
        return {
            state.rule.name: {
                "fast": state.burn(state.fast),
                "slow": state.burn(state.slow),
                "firing": state.firing,
            }
            for state in self._states
            if state.rule.budget is not None and state.sampled
        }

    def observe(
        self, record: dict, registry: MetricsRegistry | None = None
    ) -> list[dict]:
        """Fold one record; return the records it raises, in order.

        Those are ``alert`` records past the cooldown and ``slo.burn``
        transitions (each firing followed by its ``slo:<name>`` alert).
        With a ``registry``, suppressions and burn-rate firings are
        counted there and the ``slo.burn.fast.*``/``slo.burn.slow.*``
        gauges are kept fresh.
        """
        kind = record.get("type")
        if kind in ("alert", "slo.burn"):
            return []
        self.tick = kind == "slot" or (
            kind == "service.slot" and record.get("slot") != self._tick_slot
        )
        if self.tick:
            self.slots += 1
            self._tick_slot = record.get("slot")
            wall = record.get("wall_ms" if kind == "slot" else "latency_ms")
            self.tick_wall = None if wall is None else float(wall)
            if wall is not None:
                self.wall.observe(self.tick_wall)
        slot = record.get("slot")
        slot = self.slots if slot is None else int(slot)
        raised: list[dict] = []
        burned = False
        for state in self._states:
            rule = state.rule
            sample = SIGNALS[rule.signal][0](rule, record, self)
            if sample is None:
                continue
            bad, value, threshold = sample
            if rule.budget is not None:
                burned = True
                raised += self._burn(state, bad, record, slot, registry)
            elif bad:
                raised += self._fire(state, value, threshold, slot, registry)
        if burned and registry is not None:
            for name, rates in self.burn_rates().items():
                registry.gauge(f"slo.burn.fast.{name}").set(rates["fast"])
                registry.gauge(f"slo.burn.slow.{name}").set(rates["slow"])
        return raised

    def _fire(self, state: _RuleState, value, threshold, slot: int, registry):
        """A point or storm rule saw a bad sample; its alert record, if any.

        Every firing joins :attr:`alerts`; the cooldown decides whether it
        is emitted.
        """
        rule = state.rule
        if rule.window > 1:
            bad_slots = state.bad_slots
            bad_slots.append(self.slots)
            while bad_slots and bad_slots[0] < self.slots - rule.window:
                bad_slots.popleft()
            if len(bad_slots) != rule.count:
                return []
            value, threshold = float(len(bad_slots)), float(rule.count)
        message = SIGNALS[rule.signal][1](rule, value, threshold)
        self.alerts.append(Alert(rule.name, message, slot, value, threshold))
        last = self._last_emitted.get(rule.name)
        if last is not None and self.slots - last < ALERT_COOLDOWN:
            self.suppressed += 1
            if registry is not None:
                registry.counter("watchdog.suppressed").inc()
            return []
        self._last_emitted[rule.name] = self.slots
        return [self.alerts[-1].as_event()]

    def _burn(
        self,
        state: _RuleState,
        bad: bool,
        record: dict,
        slot: int,
        registry: MetricsRegistry | None,
    ) -> list[dict]:
        """Fold one burn-rate sample; the transition records, if it flips."""
        rule = state.rule
        state.fast.append(bad)
        state.slow.append(bad)
        state.sampled += 1
        if len(state.fast) < rule.min_samples:
            return []
        fast, slow = state.burn(state.fast), state.burn(state.slow)
        if state.firing:
            flips = fast < rule.fast_burn
        else:
            flips = fast >= rule.fast_burn and slow >= rule.slow_burn
        if not flips:
            return []
        state.firing = not state.firing
        transition = {
            "type": "slo.burn",
            "objective": rule.name,
            "signal": rule.signal,
            "state": "firing" if state.firing else "resolved",
            "fast_burn": fast,
            "slow_burn": slow,
            "fast_threshold": rule.fast_burn,
            "slow_threshold": rule.slow_burn,
            "budget": rule.budget,
            "samples": state.sampled,
        }
        if record.get("slot") is not None:
            transition["slot"] = record["slot"]
        if not state.firing:
            return [transition]
        if registry is not None:
            registry.counter("slo.alerts").inc()
        alert = Alert(
            f"slo:{rule.name}",
            f"SLO {rule.name} burning at {fast:.1f}x fast / {slow:.1f}x slow "
            f"(budget {rule.budget:g})",
            slot,
            float(fast),
            float(rule.fast_burn),
        )
        self.alerts.append(alert)
        return [transition, alert.as_event()]


class AlertSink(EventSink):
    """Host an :class:`AlertEvaluator` on a sink chain.

    Every record is forwarded to ``inner`` first, then evaluated. What it
    raises is emitted through the bound registry (so it carries the
    active context tags and reaches the in-memory buffer and every outer
    sink, e.g. a flight recorder) or, unbound, straight into ``inner``.
    Re-entry is safe: the evaluator skips ``alert``/``slo.burn`` records.

    Attributes:
        inner: the wrapped sink.
        evaluator: the rule engine.
    """

    def __init__(self, inner: EventSink, rules: Iterable[Rule]) -> None:
        """Wrap ``inner`` with a fresh evaluator over ``rules``."""
        self.inner = inner
        self.evaluator = AlertEvaluator(rules)
        self._registry: MetricsRegistry | None = None

    def bind(self, registry: MetricsRegistry) -> None:
        """Route raised records through ``registry.event``."""
        self._registry = registry

    def emit(self, record: dict) -> None:
        """Forward the record, evaluate it, emit what it raised."""
        self.inner.emit(record)
        for raised in self.evaluator.observe(record, self._registry):
            if self._registry is None:
                self.inner.emit(raised)
            else:
                payload = dict(raised)
                self._registry.event(payload.pop("type"), **payload)

    def flush(self) -> None:
        """Delegate to the inner sink."""
        self.inner.flush()

    def maybe_flush(self) -> None:
        """Delegate to the inner sink."""
        self.inner.maybe_flush()

    def close(self) -> None:
        """Delegate to the inner sink."""
        self.inner.close()


def alerting_registry(
    inner: EventSink | None = None,
    *,
    rules: Iterable[Rule] = (),
    recorder=None,
    max_events: int | None = None,
) -> MetricsRegistry:
    """A registry whose events stream through the alerting sink chain.

    The one place the chain is built: ``inner`` (a manifest writer, or
    nothing) wrapped in an :class:`AlertSink` when there are ``rules``,
    wrapped in a :class:`~repro.telemetry.flight.FlightRecorderSink` when
    there is a ``recorder`` — outermost, so the alerts the evaluator
    emits through the registry trigger incident dumps.
    """
    rules = tuple(rules)
    sink = inner
    host = None
    if rules:
        host = sink = AlertSink(inner if inner is not None else NullSink(), rules)
    if recorder is not None:
        sink = FlightRecorderSink(sink if sink is not None else NullSink(), recorder)
    registry = MetricsRegistry(sink=sink, max_events=max_events)
    if host is not None:
        host.bind(registry)
    return registry


def firing_objectives() -> tuple[str, ...]:
    """Burn-rate rules firing on the active registry's alert host.

    Walks the registry's sink chain to its :class:`AlertSink`; ``()``
    when the chain hosts none.
    """
    sink = getattr(get_registry(), "sink", None)
    while sink is not None and not isinstance(sink, AlertSink):
        sink = getattr(sink, "inner", None)
    return () if sink is None else sink.evaluator.active
