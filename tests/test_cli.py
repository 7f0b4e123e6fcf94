"""Tests for the command-line interface."""

import io
import json
import sys

import pytest

from repro.aggregate import AggregationConfig
from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_fig1_no_arguments(self):
        args = build_parser().parse_args(["fig1"])
        assert args.command == "fig1"

    def test_scale_arguments(self):
        args = build_parser().parse_args(
            ["fig2", "--users", "9", "--slots", "7", "--repetitions", "2", "--seed", "5"]
        )
        assert args.users == 9
        assert args.slots == 7
        assert args.repetitions == 2
        assert args.seed == 5

    def test_fig5_user_counts(self):
        args = build_parser().parse_args(
            ["fig5", "--user-counts", "5", "10", "--stay-bias", "2.5"]
        )
        assert args.user_counts == [5, 10]
        assert args.stay_bias == 2.5

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig9"])

    def test_aggregation_flags(self):
        args = build_parser().parse_args(
            ["fig2", "--aggregate", "--lambda-buckets", "16"]
        )
        assert args.aggregate is True
        assert args.lambda_buckets == 16

    def test_aggregation_flags_default_off(self):
        args = build_parser().parse_args(["fig2"])
        assert args.aggregate is False
        assert args.lambda_buckets is None

    def test_shards_is_an_unknown_argument(self, capsys):
        # Sharding was retired: every aggregated slot is one joint solve.
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["fig2", "--aggregate", "--shards", "2"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --shards 2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--workers", "-3"),
            ("--lambda-buckets", "-2"),
            ("--repetitions", "0"),
            ("--users", "0"),
            ("--slots", "0"),
        ],
    )
    def test_out_of_range_scale_argument_exits_2(self, flag, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["fig2", flag, value])
        assert excinfo.value.code == 2
        assert f"argument {flag}: must be at least" in capsys.readouterr().err


class TestAggregationScale:
    def _scale(self, argv):
        from repro.cli import _scale_from_args

        return _scale_from_args(build_parser().parse_args(argv))

    def test_aggregate_flag_enables_aggregation(self):
        scale = self._scale(["fig2", "--aggregate"])
        assert scale.aggregate is True
        assert scale.lambda_buckets == 8  # default bucket count

    def test_bucket_flag_implies_aggregate(self):
        assert self._scale(["fig2", "--lambda-buckets", "4"]).aggregate is True

    def test_zero_buckets_maps_to_exact_mode(self):
        scale = self._scale(["fig2", "--lambda-buckets", "0"])
        assert scale.lambda_buckets is None  # exact-value buckets
        assert scale.aggregate is True

    def test_no_flags_leaves_aggregation_off(self):
        scale = self._scale(["fig2", "--users", "6"])
        assert scale.aggregate is False
        from repro.experiments.settings import aggregation_config

        assert aggregation_config(scale) is None

    def test_scale_maps_to_aggregation_config(self):
        from repro.experiments.settings import aggregation_config

        scale = self._scale(["fig2", "--lambda-buckets", "16"])
        config = aggregation_config(scale)
        assert config == AggregationConfig(lambda_buckets=16)

    def test_watch_arguments(self):
        args = build_parser().parse_args(
            ["watch", "run.jsonl", "--interval", "0.1", "--once", "--strict",
             "--timeout", "2"]
        )
        assert args.manifest == "run.jsonl"
        assert args.interval == 0.1
        assert args.once and args.strict
        assert args.timeout == 2.0

    def test_export_arguments(self):
        args = build_parser().parse_args(
            ["export", "run.jsonl", "--trace", "t.json", "--openmetrics", "m.prom"]
        )
        assert args.manifest == "run.jsonl"
        assert args.trace == "t.json"
        assert args.openmetrics == "m.prom"


class TestExecution:
    def test_fig1_output(self, capsys):
        assert main(["fig1"]) == 0
        out = capsys.readouterr().out
        assert "11.5" in out
        assert "9.6" in out
        assert "11.3" in out
        assert "9.5" in out

    def test_quickstart_tiny(self, capsys):
        assert main(["quickstart", "--users", "4", "--slots", "2", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "offline-opt" in out
        assert "online-approx" in out

    def test_lookahead_tiny(self, capsys):
        assert main(["lookahead", "--users", "3", "--slots", "3", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "lookahead-1" in out
        assert "online-approx" in out

    def test_threshold_tiny(self, capsys):
        assert main(["threshold", "--slots", "3"]) == 0
        out = capsys.readouterr().out
        assert "online-greedy" in out
        assert "A=1" in out

    def test_certify_tiny(self, capsys):
        assert main(["certify", "--users", "3", "--slots", "2", "--seed", "4"]) == 0
        out = capsys.readouterr().out
        assert "chain holds       : True" in out
        assert "certified ratio" in out

    def test_fig5_tiny(self, capsys):
        code = main(
            [
                "fig5",
                "--users", "3",
                "--slots", "2",
                "--repetitions", "1",
                "--user-counts", "3",
            ]
        )
        assert code == 0
        assert "Figure 5" in capsys.readouterr().out


    def test_serve_stdio_writes_only_json_replies_to_stdout(
        self, monkeypatch, capsys
    ):
        from repro.experiments.fig2 import fig2_scenario
        from repro.experiments.settings import ExperimentScale
        from repro.service import encode, observation_to_update
        from repro.simulation.observations import observations_from_instance

        scale = ExperimentScale(num_users=3, num_slots=2)
        instance = fig2_scenario(scale).build(seed=scale.seed)
        lines = [encode({"type": "hello"}), b'{"type": "upda\n'] + [
            encode(observation_to_update(observation))
            for observation in observations_from_instance(instance)
        ]
        monkeypatch.setattr(sys, "stdin", io.StringIO(b"".join(lines).decode()))
        assert main(["serve", "--stdio", "--users", "3", "--slots", "2"]) == 0
        captured = capsys.readouterr()
        kinds = [json.loads(line)["type"] for line in captured.out.splitlines()]
        assert kinds == ["welcome", "error", "slot_result", "slot_result"]
        assert "served 2 slot(s) over stdio" in captured.err


class TestTelemetryModes:
    TINY = ["--users", "4", "--slots", "2", "--repetitions", "1"]

    def test_certify_streams_the_ratio_feed(self, tmp_path, capsys):
        from repro.telemetry import read_manifest

        path = tmp_path / "run.jsonl"
        argv = ["certify", "--users", "3", "--slots", "2", "--seed", "4",
                "--telemetry", str(path)]
        assert main(argv) == 0
        capsys.readouterr()
        record = read_manifest(path)
        points = record.events_of_type("diag.ratio.point")
        assert len(points) == 2  # one per prefix slot
        assert all("ratio" in p and "bound" in p for p in points)

    def test_watchdog_without_stream_records_alerts_in_manifest(
        self, tmp_path, capsys, monkeypatch
    ):
        import repro.telemetry as telemetry_pkg
        from repro.telemetry import Rule, read_manifest

        # Arm a certificate rule that trips on everything, so the tiny
        # buffered run provably evaluates rules and persists the alerts.
        monkeypatch.setattr(
            telemetry_pkg, "default_rules",
            lambda: (Rule("certificate-gap", "diag.certificate", limit=-1.0),),
        )
        path = tmp_path / "run.jsonl"
        argv = ["certify", "--users", "3", "--slots", "2", "--seed", "4",
                "--telemetry", str(path), "--watchdog"]
        assert main(argv) == 0
        capsys.readouterr()
        record = read_manifest(path)
        alerts = record.events_of_type("alert")
        assert alerts and all(a["rule"] == "certificate-gap" for a in alerts)

    def test_export_requires_an_output(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        assert main(["fig2", *self.TINY, "--telemetry", str(path)]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit):
            main(["export", str(path)])

    def test_export_writes_both_formats(self, tmp_path, capsys):
        import json as json_mod

        path = tmp_path / "run.jsonl"
        assert main(["fig2", *self.TINY, "--telemetry", str(path)]) == 0
        trace = tmp_path / "t.json"
        prom = tmp_path / "m.prom"
        argv = ["export", str(path), "--trace", str(trace),
                "--openmetrics", str(prom)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "chrome trace" in out and "openmetrics" in out
        assert json_mod.loads(trace.read_text())["traceEvents"]
        assert prom.read_text().endswith("# EOF\n")


class TestObservabilityFlags:
    TINY = ["--users", "4", "--slots", "2", "--repetitions", "1"]

    @staticmethod
    def _walk(spans):
        stack = list(spans)
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.get("children", ()))

    def test_flags_parse_on_scale_commands(self):
        args = build_parser().parse_args(
            ["fig2", "--trace-context", "--profile", "--profile-hz", "7"]
        )
        assert args.trace_context and args.profile
        assert args.profile_hz == 7.0
        plain = build_parser().parse_args(["fig2"])
        assert not plain.trace_context and not plain.profile

    def test_flags_on_record_trace_ids_and_profiles(self, tmp_path, capsys):
        from repro.telemetry import read_manifest

        path = tmp_path / "run.jsonl"
        argv = ["fig2", *self.TINY, "--telemetry", str(path),
                "--trace-context", "--profile"]
        assert main(argv) == 0
        capsys.readouterr()
        record = read_manifest(path)
        assert record.events_of_type("prof.phases")
        assert record.events_of_type("prof.profile")
        roots = [n for n in record.spans if "span_id" in (n.get("meta") or {})]
        assert roots, "traced run recorded no span ids"
        trace_ids = {
            n["meta"]["trace_id"]
            for n in self._walk(record.spans)
            if "trace_id" in (n.get("meta") or {})
        }
        assert len(trace_ids) == 1  # one run, one trace

    def test_flags_off_leave_the_manifest_clean(self, tmp_path, capsys):
        from repro.telemetry import read_manifest

        path = tmp_path / "run.jsonl"
        assert main(["fig2", *self.TINY, "--telemetry", str(path)]) == 0
        capsys.readouterr()
        record = read_manifest(path)
        assert not [
            e for e in record.events
            if str(e.get("type", "")).startswith("prof.")
        ]
        for node in self._walk(record.spans):
            meta = node.get("meta") or {}
            assert "span_id" not in meta and "trace_id" not in meta

    def test_export_speedscope_from_a_profiled_manifest(self, tmp_path, capsys):
        import json as json_mod

        path = tmp_path / "run.jsonl"
        argv = ["fig2", *self.TINY, "--telemetry", str(path), "--profile"]
        assert main(argv) == 0
        out_path = tmp_path / "p.speedscope.json"
        assert main(["export", str(path), "--speedscope", str(out_path)]) == 0
        capsys.readouterr()
        doc = json_mod.loads(out_path.read_text())
        assert doc["profiles"]
        assert any(p["name"].startswith("phases") for p in doc["profiles"])

    def test_profile_subcommand_wraps_a_run(self, tmp_path, capsys):
        collapsed = tmp_path / "prof.folded"
        argv = ["profile", "--collapsed", str(collapsed),
                "--", "fig2", *self.TINY]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "phase totals" in out or "sampler" in out
        assert collapsed.exists() and collapsed.read_text().strip()
