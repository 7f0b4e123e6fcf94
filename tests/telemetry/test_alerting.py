"""The alerting engine as the run and service surfaces use it.

Covers what the goldens do not: the slot clock shared by both hosts,
every deadline-miss storm reaching ``repro-edge watch``, serving-session
alerts reaching the manifest and ``/metrics``, and one evaluation per
slot per process.
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.telemetry import AlertEvaluator, WatchState, default_rules, read_manifest
from tests.telemetry.alert_streams import service_slots, slots, two_miss_storms


class TestSlotClock:
    def test_a_service_slot_announced_by_its_slot_record_does_not_tick(self):
        evaluator = AlertEvaluator(default_rules())
        for slot, service in zip(slots(5), service_slots(5)):
            evaluator.observe(slot)
            evaluator.observe(service)
        assert evaluator.slots == 5

    def test_a_session_fed_service_slot_ticks_the_clock(self):
        evaluator = AlertEvaluator(default_rules())
        for record in service_slots(5, latency_ms=3.0):
            evaluator.observe(record)
        assert evaluator.slots == 5
        assert evaluator.wall.count == 5


class TestWatchListsEveryStorm:
    def test_two_separated_miss_storms_are_both_listed(self):
        state = WatchState()
        state.update_all(two_miss_storms())
        storms = [a for a in state.alerts if a.rule == "deadline-miss"]
        assert [a.slot for a in storms] == [4, 72]
        assert state.render().count("[deadline-miss]") == 2


LOADGEN = ["loadgen", "--users", "8", "--slots", "20", "--max-iterations", "1",
           "--speed", "0", "--no-batch-reference"]


class TestServiceAlertsReachTheManifest:
    def test_slo_and_alert_records_land_in_the_manifest(self, tmp_path, capsys):
        manifest = tmp_path / "m.jsonl"
        argv = [*LOADGEN, "--slo", "--flight", "4",
                "--incident-dir", str(tmp_path / "incidents"),
                "--telemetry", str(manifest)]
        assert main(argv) == 0
        assert "SLOs firing" in capsys.readouterr().out
        record = read_manifest(manifest)
        burns = record.events_of_type("slo.burn")
        assert [(b["objective"], b["state"]) for b in burns] == [
            ("deadline-miss", "firing")
        ]
        alerts = [(a["rule"], a["slot"]) for a in record.events_of_type("alert")]
        assert alerts == [("deadline-miss", 2), ("slo:deadline-miss", 7)]
        written = record.events_of_type("incident.written")
        assert [w["reason"] for w in written] == [
            "alert:deadline-miss", "alert:slo:deadline-miss",
        ]
        assert record.gauges["slo.burn.fast.deadline-miss"] == pytest.approx(100.0)
        assert "slo.burn.slow.latency-p99" in record.gauges


class TestOneEvaluationPerSlot:
    @pytest.mark.parametrize(
        "flags",
        [["--watchdog"], ["--watchdog", "--flight", "4", "--slo"], ["--slo"]],
    )
    def test_each_served_slot_is_evaluated_once(
        self, flags, tmp_path, capsys, monkeypatch
    ):
        evaluated = []
        observe = AlertEvaluator.observe

        def counting(evaluator, record, registry=None):
            if record.get("type") == "service.slot":
                evaluated.append(record["slot"])
            return observe(evaluator, record, registry)

        monkeypatch.setattr(AlertEvaluator, "observe", counting)
        argv = [*LOADGEN, *flags, "--telemetry", str(tmp_path / "m.jsonl")]
        assert main(argv) == 0
        capsys.readouterr()
        assert evaluated == list(range(20))
