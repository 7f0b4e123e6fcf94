"""The deadline-miss storm rule: alert on clustered serving deadline misses."""

from dataclasses import replace

from repro.telemetry import AlertEvaluator, default_rules
from tests.telemetry.alert_streams import miss, slots

MISS_RULE = {rule.name: rule for rule in default_rules()}["deadline-miss"]


def _evaluator(**changes) -> AlertEvaluator:
    return AlertEvaluator([replace(MISS_RULE, **changes)])


def _fired(evaluator: AlertEvaluator, record: dict):
    before = len(evaluator.alerts)
    evaluator.observe(record)
    return evaluator.alerts[before:]


class TestDeadlineMissRule:
    def test_fires_once_when_the_threshold_is_reached(self):
        dog = _evaluator(count=2, window=5)
        assert _fired(dog, slots(1)[0]) == []
        assert _fired(dog, miss(0)) == []
        assert _fired(dog, slots(1, start=1)[0]) == []
        fired = _fired(dog, miss(1))
        assert [a.rule for a in fired] == ["deadline-miss"]
        assert fired[0].slot == 1
        assert "2 deadline misses" in fired[0].message
        # A third miss in the same storm does not re-fire.
        assert _fired(dog, miss(1)) == []

    def test_old_misses_age_out_of_the_window(self):
        dog = _evaluator(count=2, window=3)
        dog.observe(miss(0))
        for record in slots(5):
            dog.observe(record)
        # The first miss is now outside the window: one fresh miss is fine.
        assert _fired(dog, miss(5)) == []

    def test_threshold_one_alerts_on_every_storm(self):
        dog = _evaluator(count=1, window=2)
        assert len(_fired(dog, miss(0))) == 1
        for record in slots(4):
            dog.observe(record)
        assert len(_fired(dog, miss(4))) == 1

    def test_part_of_the_default_rule_set(self):
        assert MISS_RULE.signal == "service.deadline.miss"
        assert (MISS_RULE.window, MISS_RULE.count) == (25, 3)
