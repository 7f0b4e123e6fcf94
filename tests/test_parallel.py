"""Tests for the parallel sweep executor (repro.parallel).

The load-bearing invariant: a sweep fanned across worker processes is
bit-for-bit identical to the strictly serial reference path, because every
cell derives all randomness from its own seed. A worker exception must
come back as a structured per-cell failure, never a hang or a poisoned
pool.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import OfflineOptimal, OnlineGreedy
from repro.parallel import (
    CellResult,
    SweepCell,
    SweepError,
    SweepExecutor,
    comparisons_or_raise,
    resolve_workers,
)
from repro.simulation.scenario import Scenario


def _cells(seeds, *, num_users=4, num_slots=2):
    scenario = Scenario(num_users=num_users, num_slots=num_slots)
    algorithms = (OfflineOptimal(), OnlineGreedy())
    return [
        SweepCell(key=("cell", k), scenario=scenario, algorithms=algorithms, seed=seed)
        for k, seed in enumerate(seeds)
    ]


class FailingAlgorithm:
    """Module-level so the process pool can pickle it."""

    name = "boom"

    def run(self, instance):
        raise RuntimeError("injected failure")


class TestDeterminism:
    @settings(max_examples=4, deadline=None)
    @given(
        base_seed=st.integers(min_value=0, max_value=10**6),
        num_users=st.integers(min_value=3, max_value=6),
    )
    def test_parallel_matches_serial_exactly(self, base_seed, num_users):
        """Property: identical cost breakdowns (to 1e-9) at any worker count."""
        cells = _cells([base_seed, base_seed + 1], num_users=num_users)
        serial = comparisons_or_raise(SweepExecutor(max_workers=1).run_cells(cells))
        parallel = comparisons_or_raise(SweepExecutor(max_workers=2).run_cells(cells))
        for ser, par in zip(serial, parallel):
            assert sorted(ser.results) == sorted(par.results)
            for name in ser.results:
                ser_totals = ser.results[name].breakdown.totals()
                par_totals = par.results[name].breakdown.totals()
                for component, value in ser_totals.items():
                    assert par_totals[component] == pytest.approx(
                        value, rel=1e-9, abs=1e-9
                    ), (name, component)

    def test_output_order_matches_input_order(self):
        cells = _cells([11, 7, 3])
        results = SweepExecutor(max_workers=2).run_cells(cells)
        assert [result.key for result in results] == [cell.key for cell in cells]


class TestFailureCapture:
    def test_worker_exception_is_structured_not_a_hang(self):
        scenario = Scenario(num_users=3, num_slots=2)
        good = SweepCell(
            key="good",
            scenario=scenario,
            algorithms=(OfflineOptimal(), OnlineGreedy()),
            seed=5,
        )
        bad = SweepCell(
            key="bad",
            scenario=scenario,
            algorithms=(OfflineOptimal(), FailingAlgorithm()),
            seed=5,
        )
        results = SweepExecutor(max_workers=2).run_cells([good, bad])
        assert results[0].ok
        assert results[0].comparison is not None
        failure = results[1]
        assert not failure.ok
        assert failure.comparison is None
        assert "RuntimeError: injected failure" in failure.error
        assert "injected failure" in failure.traceback
        assert failure.wall_time_s >= 0.0

    def test_comparisons_or_raise_reports_failed_keys(self):
        scenario = Scenario(num_users=3, num_slots=2)
        bad = SweepCell(
            key=("case", 3),
            scenario=scenario,
            algorithms=(OfflineOptimal(), FailingAlgorithm()),
            seed=5,
        )
        results = SweepExecutor(max_workers=1).run_cells([bad])
        with pytest.raises(SweepError, match="injected failure"):
            comparisons_or_raise(results)

    def test_serial_path_captures_failures_identically(self):
        scenario = Scenario(num_users=3, num_slots=2)
        bad = SweepCell(
            key="bad",
            scenario=scenario,
            algorithms=(OfflineOptimal(), FailingAlgorithm()),
            seed=5,
        )
        (serial,) = SweepExecutor(max_workers=1).run_cells([bad])
        (parallel,) = SweepExecutor(max_workers=2).run_cells([bad])
        assert serial.error == parallel.error


class TestGracefulFallback:
    def test_unpicklable_work_falls_back_to_serial(self):
        # A lambda cannot cross a process boundary; the executor must fall
        # back to the inline path instead of raising.
        results = SweepExecutor(max_workers=2).map(lambda v: v * 2, [1, 2, 3])
        assert [result.value for result in results] == [2, 4, 6]
        assert all(result.ok for result in results)

    def test_single_item_runs_inline(self):
        import os

        results = SweepExecutor(max_workers=4).map(abs, [-3])
        assert results[0].value == 3
        assert results[0].pid == os.getpid()

    def test_keys_default_to_indices(self):
        results = SweepExecutor(max_workers=1).map(abs, [-1, -2])
        assert [result.key for result in results] == [0, 1]

    def test_keys_length_mismatch(self):
        with pytest.raises(ValueError, match="same length"):
            SweepExecutor(max_workers=1).map(abs, [-1], keys=["a", "b"])


class TestInlineFallbackVisibility:
    def test_fallback_emits_event_and_counter(self, monkeypatch):
        import repro.parallel.executor as executor_module
        from repro.telemetry import telemetry_session

        monkeypatch.setattr(executor_module, "_inline_fallback_warned", False)
        with telemetry_session() as registry:
            with pytest.warns(RuntimeWarning, match="degraded to inline"):
                results = SweepExecutor(max_workers=2).map(
                    lambda v: v + 1, [1, 2, 3]
                )
        assert [r.value for r in results] == [2, 3, 4]
        snap = registry.snapshot()
        assert snap["counters"]["parallel.fallback.inline"] >= 1
        events = [
            e for e in snap["events"] if e["type"] == "parallel.fallback.inline"
        ]
        assert events and events[0]["workers"] == 2

    def test_warning_is_one_time_per_process(self, monkeypatch):
        import warnings as warnings_module

        import repro.parallel.executor as executor_module

        monkeypatch.setattr(executor_module, "_inline_fallback_warned", False)
        with pytest.warns(RuntimeWarning):
            SweepExecutor(max_workers=2).map(lambda v: v, [1, 2])
        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            results = SweepExecutor(max_workers=2).map(lambda v: v, [1, 2])
        assert [r.value for r in results] == [1, 2]


class TestResolveWorkers:
    def test_one_is_one(self):
        assert resolve_workers(1) == 1

    def test_none_and_zero_use_all_cpus(self):
        import os

        expected = os.cpu_count() or 1
        assert resolve_workers(None) == expected
        assert resolve_workers(0) == expected

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            resolve_workers(-2)


class TestCellResult:
    def test_ok_and_comparison_accessors(self):
        result = CellResult(
            key="k", value="payload", error=None, traceback=None,
            wall_time_s=0.1, pid=123,
        )
        assert result.ok
        assert result.comparison == "payload"
        failed = CellResult(
            key="k", value=None, error="RuntimeError: x", traceback="tb",
            wall_time_s=0.1, pid=123,
        )
        assert not failed.ok


class TestRunnerIntegration:
    def test_run_ratio_sweep_workers_equivalence(self):
        """The runner-level guarantee the figures rely on."""
        from repro.experiments.runner import run_ratio_sweep

        scenario = Scenario(num_users=4, num_slots=2)
        algorithms = [OfflineOptimal(), OnlineGreedy()]
        cases = [("a", scenario, algorithms, 31), ("b", scenario, algorithms, 77)]
        serial = run_ratio_sweep(cases, repetitions=2, workers=1)
        parallel = run_ratio_sweep(cases, repetitions=2, workers=2)
        for ser, par in zip(serial, parallel):
            assert ser.label == par.label
            assert ser.stats == par.stats
            ser_costs = [c.baseline_cost for c in ser.comparisons]
            par_costs = [c.baseline_cost for c in par.comparisons]
            assert ser_costs == par_costs
