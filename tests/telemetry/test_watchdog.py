"""Point and storm rules of the alerting engine, and its sink host.

The class names follow the watchdog rule classes these tests first
pinned; each now exercises the one :class:`repro.telemetry.Rule` type
(the full alert sequences are goldens in ``test_alert_goldens.py``).
The solver-stall scenario doubles as the acceptance test for the whole
alert path: a run with one injected pathological slot must leave an
``alert`` event in its streamed manifest.
"""

from __future__ import annotations

from dataclasses import replace

from repro.telemetry import (
    Alert,
    AlertEvaluator,
    AlertSink,
    MetricsRegistry,
    RingSink,
    alerting,
    default_rules,
    read_manifest,
    streaming_manifest_session,
)
from tests.telemetry.alert_streams import certificate, slots

RULES = {rule.name: rule for rule in default_rules()}
GAP_ZERO = replace(RULES["certificate-gap"], limit=0.0)


def _evaluator(name: str, **changes) -> AlertEvaluator:
    return AlertEvaluator([replace(RULES[name], **changes)])


def _fired(evaluator: AlertEvaluator, record: dict) -> list[Alert]:
    before = len(evaluator.alerts)
    evaluator.observe(record)
    return evaluator.alerts[before:]


class TestSolverStallRule:
    def test_fires_on_an_outlier_after_warmup(self):
        dog = _evaluator("solver-stall")
        for record in slots(20):
            assert _fired(dog, record) == []
        fired = _fired(dog, {"type": "slot", "slot": 20, "wall_ms": 500.0})
        assert [a.rule for a in fired] == ["solver-stall"]
        assert fired[0].slot == 20
        assert fired[0].value == 500.0

    def test_silent_during_warmup(self):
        dog = _evaluator("solver-stall")
        for record in slots(5):
            dog.observe(record)
        # Slot 5 is huge but the p95 baseline is not armed yet.
        assert _fired(dog, {"type": "slot", "slot": 5, "wall_ms": 500.0}) == []

    def test_silent_on_ordinary_slots(self):
        dog = _evaluator("solver-stall")
        for record in slots(100):
            dog.observe(record)
        assert dog.alerts == []


class TestCertificateGapRule:
    def test_fires_above_tol_only(self):
        dog = _evaluator("certificate-gap", limit=1e-6)
        assert _fired(dog, certificate(1, 1e-9)) == []
        fired = _fired(dog, certificate(2, 1e-3))
        assert [a.rule for a in fired] == ["certificate-gap"]
        assert fired[0].slot == 2


class TestRatioBoundRule:
    def test_point_above_its_own_bound_fires(self):
        dog = _evaluator("ratio-over-bound")
        below = {"type": "diag.ratio.point", "slot": 3, "ratio": 1.2, "bound": 2.0}
        above = {"type": "diag.ratio.point", "slot": 4, "ratio": 2.5, "bound": 2.0}
        assert _fired(dog, below) == []
        assert [a.rule for a in _fired(dog, above)] == ["ratio-over-bound"]

    def test_explicit_violation_event_always_fires(self):
        dog = _evaluator("ratio-over-bound")
        violation = {
            "type": "diag.ratio.violation", "slot": 1, "ratio": 2.1, "bound": 2.0,
        }
        assert [a.rule for a in _fired(dog, violation)] == ["ratio-over-bound"]


class TestWatchdogEngine:
    def test_alert_records_are_never_reevaluated(self):
        dog = AlertEvaluator(default_rules())
        alert = Alert(rule="solver-stall", message="m").as_event()
        assert dog.observe(alert) == []
        assert dog.alerts == []

    def test_alerts_accumulate_in_firing_order(self):
        dog = AlertEvaluator([GAP_ZERO])
        dog.observe(certificate(0, 1.0))
        dog.observe(certificate(1, 1.0))
        assert [a.slot for a in dog.alerts] == [0, 1]


def _cooled_run(monkeypatch, cooldown: int, num_slots: int):
    """A sustained certificate gap through a bound sink; (ring, sink, registry)."""
    monkeypatch.setattr(alerting, "ALERT_COOLDOWN", cooldown)
    ring = RingSink()
    sink = AlertSink(ring, [GAP_ZERO])
    registry = MetricsRegistry(sink=sink)
    sink.bind(registry)
    for slot in range(num_slots):
        registry.event("slot", slot=slot, wall_ms=1.0)
        registry.event("diag.certificate", slot=slot, relative_gap=1.0)
    alerts = [r for r in ring.records if r["type"] == "alert"]
    return alerts, sink, registry


class TestWatchdogSink:
    def test_unbound_sink_writes_alerts_to_inner(self):
        ring = RingSink()
        sink = AlertSink(ring, [GAP_ZERO])
        sink.emit(certificate(0, 1.0))
        kinds = [r["type"] for r in ring.records]
        assert kinds == ["diag.certificate", "alert"]
        assert ring.records[1]["rule"] == "certificate-gap"

    def test_bound_sink_routes_alerts_through_the_registry(self):
        ring = RingSink()
        sink = AlertSink(ring, [GAP_ZERO])
        registry = MetricsRegistry(sink=sink)
        sink.bind(registry)
        with registry.context(run=3):
            registry.event("diag.certificate", slot=0, relative_gap=1.0)
        # The alert went through registry.event: context-tagged, present
        # both in the in-memory buffer and the inner sink, after its
        # triggering event in both orders.
        assert [e["type"] for e in registry.events] == ["diag.certificate", "alert"]
        assert registry.events[1]["run"] == 3
        assert [r["type"] for r in ring.records] == ["diag.certificate", "alert"]

    def test_repeated_alerts_are_suppressed_within_the_cooldown(self, monkeypatch):
        """Regression pin: one alert per rule per cooldown window.

        A sustained certificate gap fires the rule on every slot; the
        sink must emit the first alert, suppress the repeats, and count
        them in both ``.suppressed`` and the ``watchdog.suppressed``
        counter.
        """
        alerts, sink, registry = _cooled_run(monkeypatch, 25, 10)
        assert len(alerts) == 1
        assert sink.evaluator.suppressed == 9
        assert registry.counter("watchdog.suppressed").value == 9
        # The engine's history stays complete for post-mortems.
        assert len(sink.evaluator.alerts) == 10

    def test_alert_re_emits_after_the_cooldown_expires(self, monkeypatch):
        alerts, _, _ = _cooled_run(monkeypatch, 3, 8)
        # Emitted at slots 0, 3, 6 — once per 3-slot window.
        assert [a["slot"] for a in alerts] == [0, 3, 6]

    def test_zero_cooldown_disables_suppression(self, monkeypatch):
        alerts, sink, _ = _cooled_run(monkeypatch, 0, 5)
        assert len(alerts) == 5
        assert sink.evaluator.suppressed == 0

    def test_injected_solver_stall_lands_in_streamed_manifest(self, tmp_path):
        """Acceptance: a stalled slot produces an alert event in the file."""
        path = tmp_path / "run.jsonl"
        with streaming_manifest_session(path, rules=default_rules()) as registry:
            for record in slots(20):
                registry.event("slot", slot=record["slot"], wall_ms=1.0)
            registry.event("slot", slot=20, wall_ms=500.0)  # the stall
        record = read_manifest(path)
        alerts = record.events_of_type("alert")
        assert [a["rule"] for a in alerts] == ["solver-stall"]
        assert alerts[0]["slot"] == 20
