"""The batched sweep runner must be indistinguishable from the serial one.

``run_cells_batched`` reroutes every regularized allocator's structured-IPM
solves through the lockstep batch; everything the sweep produces — cost
breakdowns, schedules, ratios, telemetry aggregates — must be bit-identical
to ``SweepExecutor.run_cells`` at any worker count.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import OfflineOptimal, OnlineGreedy
from repro.core.regularization import OnlineRegularizedAllocator
from repro.parallel import SweepCell, SweepExecutor
from repro.simulation import run_cells_batched
from repro.simulation.scenario import Scenario
from repro.telemetry import telemetry_session


def _cells(seeds, *, num_users=4, num_slots=3, keep_schedule=True):
    scenario = Scenario(num_users=num_users, num_slots=num_slots)
    algorithms = (
        OfflineOptimal(),
        OnlineGreedy(),
        OnlineRegularizedAllocator(eps1=0.5, eps2=0.5),
    )
    return [
        SweepCell(
            key=("cell", k),
            scenario=scenario,
            algorithms=algorithms,
            seed=seed,
            keep_schedule=keep_schedule,
        )
        for k, seed in enumerate(seeds)
    ]


def assert_sweeps_identical(serial, batched):
    assert [r.key for r in serial] == [r.key for r in batched]
    for ser, bat in zip(serial, batched):
        assert ser.error is None, ser.error
        assert bat.error is None, bat.error
        assert set(ser.value.results) == set(bat.value.results)
        for name, ser_run in ser.value.results.items():
            bat_run = bat.value.results[name]
            assert ser_run.breakdown.totals() == bat_run.breakdown.totals(), name
            if ser_run.schedule is None:
                assert bat_run.schedule is None
            else:
                assert np.array_equal(ser_run.schedule.x, bat_run.schedule.x), name
        assert ser.value.ratios() == bat.value.ratios()


class TestBitIdentity:
    def test_batched_matches_serial(self):
        cells = _cells([3, 11, 42])
        serial = SweepExecutor(max_workers=1).run_cells(cells)
        batched = run_cells_batched(cells, workers=1)
        assert_sweeps_identical(serial, batched)

    @pytest.mark.parametrize(
        "seeds",
        [[7, 19, 23, 5], [31, 8, 15, 16]],
        ids=lambda seeds: "-".join(map(str, seeds)),
    )
    def test_batched_pool_matches_serial(self, seeds):
        cells = _cells(seeds)
        serial = SweepExecutor(max_workers=1).run_cells(cells)
        batched = run_cells_batched(cells, workers=2)
        assert_sweeps_identical(serial, batched)

    def test_dropped_schedules(self):
        cells = _cells([13, 21], keep_schedule=False)
        serial = SweepExecutor(max_workers=1).run_cells(cells)
        batched = run_cells_batched(cells, workers=1)
        assert_sweeps_identical(serial, batched)

    def test_single_cell(self):
        cells = _cells([77])
        serial = SweepExecutor(max_workers=1).run_cells(cells)
        batched = run_cells_batched(cells, workers=4)
        assert_sweeps_identical(serial, batched)

    def test_empty(self):
        assert run_cells_batched([]) == []


class TestTelemetryParity:
    def test_counter_aggregates_match_serial(self):
        cells = _cells([3, 11])
        with telemetry_session() as serial_registry:
            SweepExecutor(max_workers=1).run_cells(cells)
        with telemetry_session() as batched_registry:
            run_cells_batched(cells, workers=1)
        ser = serial_registry.snapshot()
        bat = batched_registry.snapshot()
        assert ser["counters"]["sweep.cells"] == bat["counters"]["sweep.cells"]
        for name in ("solver.ipm.solves", "solver.iterations"):
            assert bat["counters"].get(name) == ser["counters"].get(name), name
        # The batched path additionally records what it batched.
        assert bat["counters"]["solver.batched.instances"] > 0
        assert "solver.batched.batch_size" in bat["histograms"]

    def test_batches_actually_form(self):
        # Concurrent cells must rendezvous into multi-instance batches, not
        # degrade to one-instance flushes (which would just be slower).
        cells = _cells([3, 11, 42])
        with telemetry_session() as registry:
            run_cells_batched(cells, workers=1)
        hist = registry.snapshot()["histograms"]["solver.batched.batch_size"]
        assert hist["max"] >= 2


class TestRunnerWiring:
    def test_run_ratio_sweep_batch_solves(self):
        from repro.experiments.runner import run_ratio_sweep

        scenario = Scenario(num_users=4, num_slots=2)
        algorithms = [
            OfflineOptimal(),
            OnlineGreedy(),
            OnlineRegularizedAllocator(eps1=0.5, eps2=0.5),
        ]
        cases = [("a", scenario, algorithms, 31), ("b", scenario, algorithms, 77)]
        plain = run_ratio_sweep(cases, repetitions=2, workers=1)
        batched = run_ratio_sweep(
            cases, repetitions=2, workers=1, batch_solves=True
        )
        for ser, bat in zip(plain, batched):
            assert ser.label == bat.label
            assert ser.stats == bat.stats

    def test_failing_cell_is_structured(self):
        class Boom:
            name = "boom"

            def run(self, instance):
                raise RuntimeError("injected failure")

        scenario = Scenario(num_users=3, num_slots=2)
        good = _cells([5])[0]
        bad = SweepCell(
            key="bad",
            scenario=scenario,
            algorithms=(OfflineOptimal(), Boom()),
            seed=5,
        )
        results = run_cells_batched([good, bad], workers=1)
        assert results[0].ok
        assert not results[1].ok
        assert "injected failure" in results[1].error


class TestScaleWiring:
    def test_experiment_scale_flags(self):
        from repro.experiments.settings import ExperimentScale

        scale = ExperimentScale(batch_solves=True)
        assert scale.batch_solves
        assert not ExperimentScale().batch_solves

    def test_cli_flags_reach_scale(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(["fig2", "--batch-solves"])
        from repro.cli import _scale_from_args

        scale = _scale_from_args(args)
        assert scale.batch_solves
