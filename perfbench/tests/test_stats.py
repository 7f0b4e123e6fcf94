"""Unit tests of the benchmark's helpers on synthetic data.

Run from the repository root::

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import stats  # noqa: E402


class TestTail:
    def test_leaves_ten_samples_beyond(self):
        values = list(range(1, 101))  # 1..100
        value, fraction, beyond = stats.tail(values)
        assert (value, fraction, beyond) == (90, 0.90, 10)
        assert sum(1 for v in values if v > value) == 10

    def test_order_does_not_matter(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0] * 5
        assert stats.tail(values) == stats.tail(sorted(values))

    def test_smallest_sample_with_a_tail_at_the_median(self):
        values = list(range(1, 21))  # rank 10 of 20 is the median
        assert stats.tail(values) == (10, 0.5, 10)

    def test_too_few_samples_fall_back_to_the_maximum(self):
        assert stats.tail([3.0, 9.0, 1.0]) == (9.0, 1.0, 0)
        assert stats.tail(list(range(19))) == (18, 1.0, 0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            stats.tail([])


class TestBestOf:
    def test_keeps_each_keys_fastest_pass(self):
        passes = [{0: 5.0, 1: 9.0}, {0: 7.0, 1: 3.0}, {0: 6.0, 1: 4.0}]
        assert stats.best_of(passes) == {0: 5.0, 1: 3.0}

    def test_missing_keys_are_skipped(self):
        passes = [{0: 5.0}, {0: 4.0, 1: 8.0}]
        assert stats.best_of(passes) == {0: 4.0, 1: 8.0}

    def test_no_passes(self):
        assert stats.best_of([]) == {}


class TestBacklog:
    def test_steady_latency_does_not_grow(self):
        assert not stats.backlog_grows([30.0, 32.0, 29.0, 31.0] * 10, period=50.0)

    def test_linear_climb_grows(self):
        # Service 60 ms against a 50 ms period: +10 ms per update.
        latencies = [60.0 + 10.0 * i for i in range(30)]
        assert stats.backlog_grows(latencies, period=50.0)

    def test_small_drift_within_half_a_period_is_not_growth(self):
        latencies = [30.0] * 10 + [50.0] * 10
        assert not stats.backlog_grows(latencies, period=50.0)
        assert stats.backlog_grows(latencies, period=30.0)

    def test_too_short_to_judge(self):
        assert not stats.backlog_grows([1.0, 100.0, 1000.0], period=1.0)


class TestRungRule:
    def test_passes_within_one_period(self):
        assert stats.rung_passes([20.0] * 30, period=50.0, failed=0)

    def test_tail_over_the_period_fails(self):
        latencies = [20.0] * 15 + [60.0] * 15
        assert not stats.rung_passes(latencies, period=50.0, failed=0)

    def test_any_failed_update_fails(self):
        assert not stats.rung_passes([20.0] * 30, period=50.0, failed=1)

    def test_growing_backlog_fails_even_under_the_limit(self):
        latencies = [5.0 + 1.5 * i for i in range(30)]  # tail 33.5 < 40
        assert stats.tail(latencies)[0] < 40.0
        assert not stats.rung_passes(latencies, period=40.0, failed=0)

    def test_no_samples_fail(self):
        assert not stats.rung_passes([], period=50.0, failed=0)


def _span(name, start, end, parent=None):
    return {"name": name, "start": start, "end": end, "parent": parent}


class TestSelfTimes:
    def test_subtracts_direct_children_only(self):
        spans = [
            _span("step", 0.0, 10.0),
            _span("solve", 1.0, 8.0, parent=0),
            _span("assemble", 2.0, 4.0, parent=1),
            _span("account", 8.0, 9.5, parent=0),
        ]
        assert stats.self_times(spans) == {
            "step": 1.5,
            "solve": 5.0,
            "assemble": 2.0,
            "account": 1.5,
        }

    def test_self_times_sum_to_the_root(self):
        spans = [
            _span("step", 0.0, 10.0),
            _span("solve", 1.0, 8.0, parent=0),
            _span("assemble", 2.0, 4.0, parent=1),
        ]
        assert sum(stats.self_times(spans).values()) == pytest.approx(10.0)

    def test_same_name_accumulates(self):
        spans = [_span("build", 0.0, 1.0), _span("build", 2.0, 4.0)]
        assert stats.self_times(spans) == {"build": 3.0}


def test_relative_gap_uses_unit_floor():
    assert stats.relative_gap(1e-12, 0.0) == 1e-12
    assert stats.relative_gap(101.0, 100.0) == pytest.approx(0.01)
