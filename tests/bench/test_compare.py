"""Baseline gating: self-compare is clean, regressions gate by kind."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.bench import BenchMetric, BenchRecord, compare_records


def _record(**values) -> BenchRecord:
    defaults = {
        "wall_s": ("time", 2.0),
        "iterations": ("count", 400),
        "cost": ("cost", 150.0),
    }
    metrics = {}
    for name, (kind, default) in defaults.items():
        metrics[name] = BenchMetric(
            value=values.get(name, default), unit="", kind=kind
        )
    return BenchRecord(suite="smoke", metrics=metrics)


class TestSelfCompare:
    def test_round_trip_has_zero_regressions(self):
        record = _record()
        report = compare_records(record, record)
        assert report.ok
        assert report.regressions == []
        assert report.missing == [] and report.added == []

    def test_render_mentions_pass(self):
        record = _record()
        assert "PASS" in compare_records(record, record).render()


class TestTimeGating:
    def test_small_time_noise_is_ok(self):
        report = compare_records(_record(), _record(wall_s=2.1))  # +5%
        assert report.ok and report.regressions == []

    def test_large_time_regression_is_advisory_by_default(self):
        report = compare_records(_record(), _record(wall_s=3.0))  # +50%
        assert report.ok  # time not gated...
        assert [d.name for d in report.regressions] == ["wall_s"]  # ...but listed
        assert "advisory" in report.render()

    def test_gate_time_fails_on_time_regression(self):
        report = compare_records(_record(), _record(wall_s=3.0), gate_time=True)
        assert not report.ok

    def test_threshold_is_configurable(self):
        report = compare_records(
            _record(), _record(wall_s=2.4), time_threshold=0.25
        )
        assert report.regressions == []  # +20% < 25%


class TestDeterministicGating:
    def test_iteration_regression_fails(self):
        report = compare_records(_record(), _record(iterations=500))
        assert not report.ok
        assert [d.name for d in report.gated_regressions] == ["iterations"]
        assert "FAIL" in report.render()

    def test_cost_regression_fails(self):
        report = compare_records(_record(), _record(cost=151.0))
        assert not report.ok

    def test_cost_numerical_noise_is_ok(self):
        report = compare_records(_record(), _record(cost=150.0 * (1 + 1e-9)))
        assert report.ok

    def test_improvements_never_fail(self):
        report = compare_records(
            _record(), _record(wall_s=1.0, iterations=300, cost=100.0)
        )
        assert report.ok and report.regressions == []


class TestSchemaDrift:
    def test_missing_metric_fails_the_gate(self):
        current = _record()
        current = BenchRecord(
            suite="smoke",
            metrics={
                k: v for k, v in current.metrics.items() if k != "iterations"
            },
        )
        report = compare_records(_record(), current)
        assert not report.ok
        assert report.missing == ["iterations"]

    def test_added_metric_is_informational(self):
        current = _record()
        metrics = dict(current.metrics)
        metrics["new_thing"] = BenchMetric(value=1.0, unit="", kind="count")
        report = compare_records(
            _record(), BenchRecord(suite="smoke", metrics=metrics)
        )
        assert report.ok
        assert report.added == ["new_thing"]

    def test_suite_mismatch_raises(self):
        other = BenchRecord(suite="solver")
        with pytest.raises(ValueError, match="suite"):
            compare_records(_record(), other)

    def test_config_mismatch_names_the_differing_keys(self):
        config = {"num_users": 8, "num_slots": 6, "seed": 2017}
        baseline = replace(_record(), config=config)
        current = replace(_record(), config={**config, "num_users": 24, "eps": 1.0})
        with pytest.raises(ValueError, match="config mismatch") as excinfo:
            compare_records(baseline, current)
        message = str(excinfo.value)
        assert "eps" in message and "num_users" in message
        assert "num_slots" not in message and "seed" not in message
