"""`repro-edge bench` / `repro-edge doctor` end to end.

The bench round-trip invariant (a record compared against itself passes
with zero regressions) and the doctor post-mortem (complete and torn
manifests) are exercised through the real CLI entry point.
"""

from __future__ import annotations

import json

import pytest

from repro.bench import doctor_report, read_record
from repro.cli import main

TINY = ["--users", "4", "--slots", "2", "--repetitions", "1"]


@pytest.fixture(scope="module")
def bench_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("bench") / "BENCH_smoke.json"
    assert main(["bench", "--suite", "smoke", *TINY, "--out", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def manifest_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("doctor") / "run.jsonl"
    code = main(["fig2", *TINY, "--telemetry", str(path)])
    assert code == 0
    return path


class TestBenchCli:
    def test_writes_a_readable_record(self, bench_file):
        record = read_record(bench_file)
        assert record.suite == "smoke"
        assert record.metrics["solves"].value == 2

    def test_compare_round_trips_with_zero_regressions(self, bench_file, capsys):
        code = main(
            ["bench", "--suite", "smoke", *TINY, "--out",
             str(bench_file.with_name("again.json")),
             "--compare", str(bench_file)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "REGRESSED" not in out

    def test_regression_exits_nonzero(self, bench_file, tmp_path, capsys):
        # Shrink the baseline cost so the (identical) current run regresses.
        data = json.loads(bench_file.read_text())
        data["metrics"]["online_cost"]["value"] *= 0.5
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(data))
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["bench", "--suite", "smoke", *TINY, "--out",
                 str(tmp_path / "current.json"), "--compare", str(baseline)]
            )
        assert excinfo.value.code == 1
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "out", [[], ["--out", "./BENCH_smoke.json"]], ids=["default", "explicit"]
    )
    def test_out_equal_to_compare_is_refused(
        self, bench_file, tmp_path, monkeypatch, capsys, out
    ):
        # The default --out is BENCH_<suite>.json in the working directory.
        monkeypatch.chdir(tmp_path)
        baseline = tmp_path / "BENCH_smoke.json"
        baseline.write_bytes(bench_file.read_bytes())
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "--suite", "smoke", *TINY, *out,
                  "--compare", "BENCH_smoke.json"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "is the --compare baseline" in err
        assert baseline.read_bytes() == bench_file.read_bytes()

    @pytest.mark.parametrize(
        "edit, key",
        [
            (lambda data: data.update(suite="solver"), "suite mismatch"),
            (lambda data: data["config"].update(num_users=24), "num_users"),
        ],
        ids=["suite", "config"],
    )
    def test_mismatched_baseline_exits_2_with_one_line(
        self, bench_file, tmp_path, capsys, edit, key
    ):
        data = json.loads(bench_file.read_text())
        edit(data)
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(data))
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "--suite", "smoke", *TINY, "--out",
                  str(tmp_path / "current.json"), "--compare", str(baseline)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and key in err

    def test_missing_baseline_exits_2_with_one_line(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "--suite", "smoke", *TINY, "--out",
                  str(tmp_path / "current.json"),
                  "--compare", str(tmp_path / "absent.json")])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "cannot read baseline" in err
        assert not (tmp_path / "current.json").exists()

    def test_unknown_suite_is_an_error(self, tmp_path):
        with pytest.raises(ValueError, match="unknown bench suite"):
            main(["bench", "--suite", "nope", *TINY,
                  "--out", str(tmp_path / "x.json")])


class TestDoctorReport:
    SECTIONS = (
        "Slowest slots",
        "Solver incidents",
        "Optimality certificates",
        "Competitive ratio vs Theorem 2",
        "Interior-point convergence",
        "Aggregation",
    )

    def test_all_sections_render_on_a_complete_manifest(self, manifest_file):
        report = doctor_report(manifest_file)
        for section in self.SECTIONS:
            assert section in report
        assert "TRUNCATED" not in report

    def test_cli_doctor_prints_the_report(self, manifest_file, capsys):
        assert main(["doctor", str(manifest_file)]) == 0
        out = capsys.readouterr().out
        assert "Slowest slots" in out

    def test_truncated_manifest_gets_a_banner(self, manifest_file, tmp_path):
        lines = manifest_file.read_text().splitlines()
        # Drop manifest_end and tear the new last line mid-JSON.
        torn = tmp_path / "torn.jsonl"
        torn.write_text("\n".join(lines[:-2] + [lines[-2][: len(lines[-2]) // 2]]))
        report = doctor_report(torn)
        assert "TRUNCATED" in report
        for section in self.SECTIONS:
            assert section in report

    def test_alert_section_lists_watchdog_firings(self, manifest_file, tmp_path):
        import json as json_mod

        lines = manifest_file.read_text().splitlines()
        alert = json_mod.dumps(
            {"type": "alert", "rule": "solver-stall", "slot": 1,
             "message": "slot wall time 500.0 ms exceeds 8 x p95"}
        )
        # Splice an alert event in front of the trailing sections and fix
        # the manifest_end event count to match.
        end = json_mod.loads(lines[-1])
        end["events"] += 1
        doctored = tmp_path / "alerts.jsonl"
        doctored.write_text(
            "\n".join(lines[:-3] + [alert] + lines[-3:-1] + [json_mod.dumps(end)])
        )
        report = doctor_report(doctored)
        assert "Watchdog alerts" in report
        assert "solver-stall: 1" in report
        assert "slot wall time 500.0 ms" in report

    def test_no_alerts_renders_none(self, manifest_file):
        report = doctor_report(manifest_file)
        assert "Watchdog alerts" in report
        assert "none recorded" in report

    def test_aggregation_section_without_aggregation(self, manifest_file):
        report = doctor_report(manifest_file)
        assert "Aggregation" in report
        assert "not used (per-user solves)" in report

    def test_aggregation_section_summarizes_aggregated_runs(self, tmp_path):
        path = tmp_path / "agg.jsonl"
        code = main(
            ["fig2", *TINY, "--aggregate", "--lambda-buckets", "4",
             "--telemetry", str(path)]
        )
        assert code == 0
        report = doctor_report(path)
        assert "aggregated slots" in report
        assert "a-priori cost error bound" in report
        assert "disaggregation gap" in report


class TestDoctorDirectory:
    def test_directory_resolves_to_newest_manifest(self, tmp_path):
        import os

        from repro.bench import resolve_manifest_path

        old = tmp_path / "old.jsonl"
        new = tmp_path / "new.jsonl"
        start = '{"type": "manifest_start", "format": "repro.telemetry/1"}\n'
        old.write_text(start)
        new.write_text(start)
        past = old.stat().st_mtime - 100
        os.utime(old, (past, past))
        assert resolve_manifest_path(tmp_path) == new
        # A file path passes through untouched, even a nonexistent one.
        assert resolve_manifest_path(old) == old
        assert resolve_manifest_path(tmp_path / "nope.jsonl").name == "nope.jsonl"

    def test_empty_directory_is_an_error(self, tmp_path):
        from repro.bench import resolve_manifest_path

        with pytest.raises(FileNotFoundError, match="no \\*.jsonl"):
            resolve_manifest_path(tmp_path)

    def test_cli_doctor_accepts_a_directory(self, manifest_file, capsys):
        assert main(["doctor", str(manifest_file.parent)]) == 0
        out = capsys.readouterr().out
        assert "Slowest slots" in out
        # The report names the file it picked inside the directory.
        assert manifest_file.name in out


class TestObservabilitySections:
    """The Service / Parallel / Where-the-time-went doctor sections."""

    def _record(self, **kwargs):
        from repro.telemetry import RunRecord

        return RunRecord(**kwargs)

    def test_new_sections_render_their_fallbacks(self, manifest_file):
        report = doctor_report(manifest_file)
        assert "Service" in report
        assert "no service activity recorded" in report
        assert "Where the time went" in report
        assert "no profile recorded (run with --profile)" in report

    def test_service_section_summarizes_requests_and_misses(self):
        record = self._record(
            counters={
                "service.slots": 8,
                "service.protocol.rejected": 2,
                "service.updates.superseded": 1,
                "service.deadline.misses": 3,
                "service.deadline.partial_solves": 1,
            },
            events=[
                {
                    "type": "service.deadline.miss",
                    "slot": 4,
                    "latency_ms": 512.5,
                    "deadline_ms": 250.0,
                    "partial": True,
                }
            ],
        )
        report = doctor_report(record)
        assert "8 request(s) served, 2 rejected, 1 superseded" in report
        assert "deadline misses: 3 (1 budget-truncated solves)" in report
        assert "miss at slot    4" in report and "partial solve" in report

    def test_slo_incident_section_renders_its_fallback(self, manifest_file):
        report = doctor_report(manifest_file)
        assert "SLOs & Incidents" in report
        assert "no SLO plane or flight recorder active" in report

    def test_slo_incident_section_lists_burns_and_bundles(self):
        record = self._record(
            counters={"flight.snapshots": 12, "watchdog.suppressed": 4},
            gauges={
                "slo.burn.fast.deadline-miss": 25.0,
                "slo.burn.slow.deadline-miss": 9.0,
            },
            events=[
                {
                    "type": "slo.burn",
                    "objective": "deadline-miss",
                    "state": "firing",
                    "fast_burn": 25.0,
                    "slow_burn": 9.0,
                    "budget": 0.01,
                },
                {
                    "type": "incident.written",
                    "path": "/tmp/incident-000-deadline-miss.jsonl",
                    "rule": "deadline-miss",
                    "snapshots": 4,
                },
            ],
        )
        report = doctor_report(record)
        assert "SLOs & Incidents" in report
        assert "FIRING [deadline-miss]" in report
        assert "burn [deadline-miss] fast 25.00x / slow 9.00x" in report
        assert "flight snapshots captured: 12" in report
        assert "incident bundles written: 1" in report
        assert "repro-edge incident replay" in report
        assert "suppressed by cooldown: 4" in report

    def test_slo_resolution_clears_the_firing_line(self):
        burn = {
            "type": "slo.burn",
            "objective": "deadline-miss",
            "fast_burn": 1.0,
            "slow_burn": 1.0,
            "budget": 0.01,
        }
        record = self._record(
            events=[
                dict(burn, state="firing"),
                dict(burn, state="resolved"),
            ]
        )
        report = doctor_report(record)
        assert "FIRING" not in report
        assert "0 still firing, 1 resolved" in report

    def test_parallel_fallback_regression_surfaces_in_doctor(self):
        """Regression pin: an inline fallback must never be silent."""
        record = self._record(
            counters={"sweep.cells": 6, "parallel.fallback.inline": 2},
            gauges={"sweep.workers": 4},
            events=[
                {
                    "type": "parallel.fallback.inline",
                    "error": "PicklingError: boom",
                    "cells": 6,
                    "workers": 4,
                }
            ],
        )
        report = doctor_report(record)
        assert "6 cell(s) dispatched over 4 worker(s)" in report
        assert "WARNING: 2 fan-out(s) degraded to inline execution" in report
        assert "PicklingError: boom" in report

    def test_parallel_clean_run_reports_no_fallbacks(self):
        record = self._record(
            counters={"sweep.cells": 4}, gauges={"sweep.workers": 2}
        )
        report = doctor_report(record)
        assert "no inline fallbacks - the pool ran as requested" in report

    def test_where_the_time_went_ranks_phases(self):
        record = self._record(
            events=[
                {
                    "type": "prof.phases",
                    "slot": 0,
                    "wall_ms": 10.0,
                    "phases": {"ipm.line_search": 6.0, "ipm.assemble": 4.0},
                },
                {
                    "type": "prof.phases",
                    "slot": 1,
                    "wall_ms": 4.0,
                    "phases": {"ipm.line_search": 3.0, "ipm.assemble": 1.0},
                },
            ]
        )
        report = doctor_report(record)
        lines = report.splitlines()
        ranked = [
            line for line in lines if "ipm." in line and "%" in line
        ]
        assert len(ranked) == 2
        assert "ipm.line_search" in ranked[0]  # biggest share first
        assert "slowest slot    0" in report and "mostly ipm.line_search" in report

    def test_profiled_cli_run_ranks_phases_end_to_end(self, tmp_path):
        path = tmp_path / "profiled.jsonl"
        assert main(["fig2", *TINY, "--telemetry", str(path), "--profile"]) == 0
        report = doctor_report(path)
        assert "Where the time went" in report
        assert "profiled slot(s)" in report
        assert "ipm." in report


BUNDLE = (
    '{"type": "incident_start", "format": "repro.incident/1"}\n'
    '{"type": "incident_end", "snapshots": 0}\n'
)


class TestHostileInput:
    """Non-manifests and missing paths end in exit 2 with one line."""

    def test_directory_skips_a_newer_bundle(self, manifest_file, tmp_path, capsys):
        import os

        manifest = tmp_path / "run.jsonl"
        manifest.write_text(manifest_file.read_text())
        bundle = tmp_path / "incident-000-deadline-miss.jsonl"
        bundle.write_text(BUNDLE)
        past = manifest.stat().st_mtime - 100
        os.utime(manifest, (past, past))
        assert main(["doctor", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert f"Run post-mortem - {manifest}" in out
        assert "TRUNCATED" not in out

    @pytest.mark.parametrize("command", ["doctor", "export"])
    @pytest.mark.parametrize(
        "name, text",
        [("bundle.jsonl", BUNDLE), ("garbage.jsonl", "garbage\n"),
         ("missing.jsonl", None)],
        ids=["bundle", "garbage", "missing"],
    )
    def test_unreadable_file_exits_2(self, tmp_path, capsys, command, name, text):
        path = tmp_path / name
        if text is not None:
            path.write_text(text)
        extra = ["--trace", str(tmp_path / "t.json")] if command == "export" else []
        assert main([command, str(path), *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(f"{command}: ") and name in line

    def test_empty_directory_exits_2(self, tmp_path, capsys):
        assert main(["doctor", str(tmp_path)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert "holds no *.jsonl manifest" in line
