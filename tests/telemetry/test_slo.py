"""Burn-rate rules: the SLO half of the alerting engine.

Pins the alerting contract: an objective fires only when the fast AND
slow windows both burn past their thresholds, resolves when the fast
window recovers, and every transition payload carries enough context
(rates, thresholds, budget) to be rendered without the evaluator. The
class names follow the SLO classes these tests first pinned; the full
transition sequences are goldens in ``test_alert_goldens.py``.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.telemetry import AlertEvaluator, Rule, default_slos
from tests.telemetry.alert_streams import service_slots

SMALL = dict(budget=0.5, window=4, slow_window=8, fast_burn=1.5, slow_burn=1.0,
             min_samples=2)


def _miss_objective(**overrides):
    return replace(
        Rule(
            "deadline-miss",
            "deadline-miss",
            budget=0.1,
            window=8,
            slow_window=16,
            fast_burn=5.0,
            slow_burn=2.0,
            min_samples=4,
        ),
        **overrides,
    )


def _transitions(evaluator: AlertEvaluator, records) -> list[dict]:
    return [
        raised
        for record in records
        for raised in evaluator.observe(record)
        if raised["type"] == "slo.burn"
    ]


class TestSloObjective:
    def test_rejects_unknown_signals(self):
        with pytest.raises(ValueError, match="unknown signal"):
            Rule("x", "throughput", budget=0.01)

    def test_rejects_out_of_range_budgets(self):
        with pytest.raises(ValueError, match="budget"):
            Rule("x", "deadline-miss", budget=0.0)
        with pytest.raises(ValueError, match="budget"):
            Rule("x", "deadline-miss", budget=1.5)

    def test_rejects_inverted_windows(self):
        with pytest.raises(ValueError, match="windows"):
            Rule("x", "deadline-miss", budget=0.01, window=64, slow_window=32)

    def test_latency_requires_a_threshold(self):
        with pytest.raises(ValueError, match="requires a limit"):
            Rule("x", "latency", budget=0.01)

    def test_default_slos_cover_the_serving_story(self):
        objectives = default_slos()
        assert [o.name for o in objectives] == [
            "latency-p99",
            "deadline-miss",
            "ratio-bound",
        ]
        assert [o.signal for o in objectives] == [
            "latency", "deadline-miss", "ratio-bound",
        ]
        assert all(o.budget is not None for o in objectives)

    def test_default_latency_threshold_follows_the_deadline(self):
        assert default_slos(deadline_ms=40.0)[0].limit == 40.0
        assert default_slos()[0].limit == 250.0


class TestBurnRateAlerting:
    def test_all_good_slots_never_fire(self):
        evaluator = AlertEvaluator((_miss_objective(),))
        assert _transitions(evaluator, service_slots(100)) == []
        assert evaluator.active == ()
        rates = evaluator.burn_rates()["deadline-miss"]
        assert rates["fast"] == 0.0 and rates["slow"] == 0.0

    def test_storm_fires_once_and_resolves_on_recovery(self):
        evaluator = AlertEvaluator((_miss_objective(),))
        raised = [
            out
            for record in service_slots(8, miss=True)
            for out in evaluator.observe(record)
        ]
        assert [r["type"] for r in raised] == ["slo.burn", "alert"]
        firing, alert = raised
        assert firing["state"] == "firing"
        assert firing["objective"] == "deadline-miss"
        assert firing["fast_burn"] >= firing["fast_threshold"]
        assert firing["slow_burn"] >= firing["slow_threshold"]
        assert firing["budget"] == 0.1
        assert "slot" in firing
        assert alert["rule"] == "slo:deadline-miss"
        assert alert["slot"] == firing["slot"]
        assert evaluator.active == ("deadline-miss",)
        # Steady burn is silent; recovery resolves exactly once.
        transitions = _transitions(
            evaluator, service_slots(16, miss=False, start=8)
        )
        assert [t["state"] for t in transitions] == ["resolved"]
        assert evaluator.active == ()

    def test_short_blip_below_min_samples_is_silent(self):
        evaluator = AlertEvaluator((_miss_objective(min_samples=6),))
        assert _transitions(evaluator, service_slots(3, miss=True)) == []

    def test_slow_window_gates_a_fresh_storm(self):
        # fast window saturates immediately but the slow window holds the
        # long good history, so a brief storm after a long healthy run
        # must clear the slow threshold too before firing.
        evaluator = AlertEvaluator((_miss_objective(slow_burn=6.0),))
        _transitions(evaluator, service_slots(16))
        # 8 bad of 16 slow samples = 0.5/0.1 = 5x < 6x: not firing.
        assert _transitions(
            evaluator, service_slots(8, miss=True, start=16)
        ) == []
        assert evaluator.active == ()


class TestSignalSampling:
    def test_latency_signal_classifies_against_threshold(self):
        evaluator = AlertEvaluator((Rule("latency", "latency", limit=10.0, **SMALL),))
        _transitions(evaluator, service_slots(4, latency_ms=50.0))
        assert evaluator.active == ("latency",)

    def test_ratio_bound_signal_burns_on_violation(self):
        evaluator = AlertEvaluator((default_slos()[2],))
        transitions = _transitions(
            evaluator,
            [{"type": "diag.ratio.point", "slot": 3, "ratio": 1.4, "bound": 1.3}],
        )
        assert [t["state"] for t in transitions] == ["firing"]

    def test_unknown_records_are_ignored(self):
        evaluator = AlertEvaluator(default_slos())
        assert evaluator.observe({"type": "spans"}) == []
        assert evaluator.observe({}) == []
        assert evaluator.burn_rates() == {}
