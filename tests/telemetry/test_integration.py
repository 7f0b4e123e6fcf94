"""End-to-end telemetry guarantees: bit-identical results, deterministic
parallel aggregation, and a CLI manifest whose costs check out.

These are the acceptance tests of the telemetry layer:

* enabling telemetry changes **nothing** about computed results;
* sweep metrics aggregate identically at any worker count (snapshots
  merge in input order on both paths);
* ``repro-edge fig2 --telemetry run.jsonl`` emits a parseable manifest
  whose summed per-slot costs match the reported breakdowns to 1e-9.
"""

from __future__ import annotations

import numpy as np

from repro.analysis import load_manifest, verify_manifest_costs
from repro.baselines import OfflineOptimal, OnlineGreedy
from repro.cli import main
from repro.core.regularization import OnlineRegularizedAllocator
from repro.parallel import SweepCell, SweepExecutor
from repro.simulation import Scenario, compare_algorithms
from repro.telemetry import telemetry_session, walk_spans


def _strip_timing(snapshot: dict) -> dict:
    """A snapshot with wall-clock values removed (counts kept)."""
    histograms = {
        name: {"count": data["count"]}
        if "wall" in name
        else dict(data)
        for name, data in snapshot["histograms"].items()
    }
    events = [
        {k: v for k, v in event.items() if k not in ("wall_ms", "wall_s")}
        for event in snapshot["events"]
    ]
    span_shape = [
        (depth, node["name"]) for depth, node in walk_spans(snapshot["spans"])
    ]
    return {
        "counters": snapshot["counters"],
        "gauges": {n: v for n, v in snapshot["gauges"].items() if n != "sweep.workers"},
        "histograms": histograms,
        "events": events,
        "spans": span_shape,
    }


def _cells(seeds):
    scenario = Scenario(num_users=4, num_slots=2)
    algorithms = (OfflineOptimal(), OnlineGreedy())
    return [
        SweepCell(key=("cell", k), scenario=scenario, algorithms=algorithms, seed=seed)
        for k, seed in enumerate(seeds)
    ]


class TestBitIdentical:
    def test_compare_algorithms_unchanged_by_telemetry(self):
        instance = Scenario(num_users=4, num_slots=3).build(seed=11)
        algorithms = [OfflineOptimal(), OnlineGreedy(), OnlineRegularizedAllocator()]
        plain = compare_algorithms(algorithms, instance)
        with telemetry_session():
            observed = compare_algorithms(
                [OfflineOptimal(), OnlineGreedy(), OnlineRegularizedAllocator()],
                instance,
            )
        assert plain.ratios() == observed.ratios()  # exact float equality
        for name, result in plain.results.items():
            assert result.breakdown.totals() == observed.results[name].breakdown.totals()
            assert np.array_equal(result.schedule.x, observed.results[name].schedule.x)

    def test_cli_report_identical_with_and_without_telemetry(self, tmp_path, capsys):
        argv = ["fig2", "--users", "4", "--slots", "2", "--repetitions", "1"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main(argv + ["--telemetry", str(tmp_path / "run.jsonl")]) == 0
        assert capsys.readouterr().out == plain


class TestParallelAggregation:
    def test_serial_and_pooled_metrics_agree(self):
        cells = _cells([0, 1, 2, 3])
        with telemetry_session() as serial_registry:
            serial_results = SweepExecutor(max_workers=1).run_cells(cells)
        with telemetry_session() as pooled_registry:
            pooled_results = SweepExecutor(max_workers=2).run_cells(cells)

        assert [r.ok for r in serial_results] == [r.ok for r in pooled_results]
        serial = _strip_timing(serial_registry.snapshot())
        pooled = _strip_timing(pooled_registry.snapshot())
        assert serial == pooled
        # The sweep itself was counted, and the cells really recorded.
        assert serial["counters"]["sweep.cells"] == 4.0
        assert serial["counters"]["accounting.slots"] > 0

    def test_cell_snapshots_ride_home_and_merge_in_input_order(self):
        cells = _cells([5, 6])
        with telemetry_session() as registry:
            results = SweepExecutor(max_workers=1).run_cells(cells)
        assert all(result.telemetry is not None for result in results)
        merged_keys = [
            event.get("cell")
            for event in registry.events
            if event.get("type") == "run_end"
        ]
        # Both cells' runs are present, grouped cell 0 first (input order).
        assert merged_keys == sorted(merged_keys, key=lambda key: key[1])

    def test_no_snapshots_when_disabled(self):
        results = SweepExecutor(max_workers=1).run_cells(_cells([0]))
        assert results[0].telemetry is None

    def test_cell_spans_grouped_under_per_cell_roots(self):
        """Merged sweeps keep one ``cell`` span root per cell (serial and
        pooled alike), so doctor can attribute spans on parallel runs."""
        cells = _cells([7, 8])
        for workers in (1, 2):
            with telemetry_session() as registry:
                SweepExecutor(max_workers=workers).run_cells(cells)
            roots = registry.spans
            assert [node["name"] for node in roots] == ["cell", "cell"]
            assert [node["meta"]["cell"] for node in roots] == [c.key for c in cells]
            for node in roots:
                assert node["duration_ms"] > 0.0
                # The cell's own trace tree survives underneath.
                assert {child["name"] for child in node["children"]} == {"run"}


class TestCliManifest:
    def test_fig2_manifest_costs_match_to_1e_9(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        argv = [
            "fig2",
            "--users",
            "4",
            "--slots",
            "2",
            "--repetitions",
            "1",
            "--telemetry",
            str(path),
        ]
        assert main(argv) == 0
        capsys.readouterr()

        record = load_manifest(path)
        assert record.config["command"] == "fig2"
        assert record.config["users"] == 4
        checks = verify_manifest_costs(record)
        assert checks, "expected at least one run in the manifest"
        for check in checks:
            assert check.slots == 2
            assert check.ok(tol=1e-9), (check.key, check.deviation)

    def test_metrics_summary_appended(self, capsys):
        argv = [
            "quickstart",
            "--users",
            "4",
            "--slots",
            "2",
            "--metrics-summary",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "metrics summary" in out
        assert "accounting.cost.total" in out


class TestEngineTagging:
    def test_runs_are_tagged_and_spanned(self):
        instance = Scenario(num_users=4, num_slots=2).build(seed=3)
        with telemetry_session() as registry:
            compare_algorithms([OfflineOptimal(), OnlineGreedy()], instance)
        run_ends = [e for e in registry.events if e["type"] == "run_end"]
        assert len(run_ends) == 2
        assert len({event["run"] for event in run_ends}) == 2
        assert {event["algorithm"] for event in run_ends} == {
            "offline-opt",
            "online-greedy",
        }
        roots = [node["name"] for node in registry.spans]
        assert roots == ["run", "run"]
        assert registry.spans[0]["children"][0]["name"] == "simulate"
