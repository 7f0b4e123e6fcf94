"""The serving session on the one incident plane: recorder, SLOs, loadgen.

The alert rules and the flight recorder live on the active registry's
sink chain (``streaming_manifest_session``), for a serving session as for
any batch run. A deadline-miss storm served under that chain must leave a
replayable incident bundle behind, with the slots' batch records in its
context window, and the recorder/SLO counters must travel through
``stats`` replies into the loadgen report.
"""

from __future__ import annotations

from repro.service import AllocationSession, ServiceConfig, run_loadgen
from repro.simulation.observations import (
    SystemDescription,
    observations_from_instance,
)
from repro.telemetry import (
    FlightRecorder,
    active_recorder,
    default_rules,
    default_slos,
    read_bundle,
    replay_bundle,
    streaming_manifest_session,
)
from tests.conftest import make_tiny_instance

STORM = ServiceConfig(max_iterations=1)


def _long_stream(num_slots: int = 12):
    """A stream long enough for the default SLOs (min_samples=8) to fire."""
    instance = make_tiny_instance(num_slots=num_slots)
    system = SystemDescription.from_instance(instance)
    return system, observations_from_instance(instance)


def _armed(recorder: FlightRecorder):
    """The chain ``repro-edge --flight K --slo`` builds around a command."""
    return streaming_manifest_session(
        None, rules=default_rules() + default_slos(), recorder=recorder
    )


class TestSessionIncidentPlane:
    def test_deadline_miss_storm_dumps_a_replayable_bundle(
        self, tiny_stream, tmp_path
    ):
        system, observations = tiny_stream
        recorder = FlightRecorder(4, incident_dir=tmp_path)
        with _armed(recorder):
            session = AllocationSession(system, STORM)
            for observation in observations:
                result = session.step(observation)
                assert result.partial
        bundles = recorder.bundles_written
        assert bundles, "the miss storm should have dumped a bundle"
        bundle = read_bundle(bundles[0])
        assert bundle.reason.startswith("alert:")
        report = replay_bundle(bundle)
        assert report.ok, report.render()

    def test_served_bundle_context_holds_the_batch_slot_records(
        self, tiny_stream, tmp_path
    ):
        system, observations = tiny_stream
        recorder = FlightRecorder(4, incident_dir=tmp_path)
        with _armed(recorder):
            session = AllocationSession(system, STORM)
            for observation in observations:
                session.step(observation)
        bundle = read_bundle(recorder.bundles_written[0])
        events = bundle.context["events"]
        served = [s["slot"] for s in bundle.snapshots]
        slot_records = [e["slot"] for e in events if e["type"] == "slot"]
        assert slot_records == served
        assert {e["type"] for e in events} >= {
            "slot", "service.slot", "service.deadline.miss", "alert",
        }

    def test_recorder_disabled_by_default(self, tiny_stream):
        system, observations = tiny_stream
        session = AllocationSession(system, ServiceConfig())
        session.step(observations[0])
        assert active_recorder() is None
        stats = session.stats()
        assert stats["flight_snapshots"] == 0
        assert stats["incident_bundles"] == []
        assert stats["slo_active"] == []

    def test_stats_reports_recorder_and_slo_counters(self, tmp_path):
        system, observations = _long_stream()
        with _armed(FlightRecorder(4, incident_dir=tmp_path)):
            session = AllocationSession(system, STORM)
            for observation in observations:
                session.step(observation)
            stats = session.stats()
        assert stats["flight_snapshots"] == len(observations)
        assert len(stats["incident_bundles"]) >= 1
        assert all(isinstance(p, str) for p in stats["incident_bundles"])
        assert "deadline-miss" in stats["slo_active"]

    def test_reset_leaves_the_process_wide_plane_alone(
        self, tiny_stream, tmp_path
    ):
        system, observations = tiny_stream
        recorder = FlightRecorder(4, incident_dir=tmp_path)
        with _armed(recorder):
            session = AllocationSession(system, STORM)
            for observation in observations:
                session.step(observation)
            session.reset_session()
            assert len(recorder.snapshots) == 4
            # The session accepts slot 0 again and keeps recording.
            session.step(observations[0])
            session.settle()
        assert recorder.snapshots[-1].slot == 0
        assert recorder.snapshots_taken == len(observations) + 1

    def test_memory_only_recorder_keeps_the_ring_without_dumping(
        self, tiny_stream
    ):
        system, observations = tiny_stream
        recorder = FlightRecorder(3)
        with _armed(recorder):
            session = AllocationSession(system, STORM)
            for observation in observations:
                session.step(observation)
        assert recorder.bundles_written == []
        assert len(recorder.snapshots) == 3


class TestLoadgenSurface:
    def test_report_carries_recorder_counters_over_the_wire(self, tmp_path):
        system, observations = _long_stream()
        with _armed(FlightRecorder(4, incident_dir=tmp_path)):
            report = run_loadgen(
                system, observations, STORM, speed=0, batch_reference=False
            )
        assert report.flight_snapshots == len(observations)
        assert len(report.incident_bundles) >= 1
        assert "deadline-miss" in report.slo_active
        rendered = report.render()
        assert "flight recorder" in rendered
        assert "SLOs firing" in rendered
        payload = report.as_dict()
        assert payload["flight_snapshots"] == len(observations)
        assert isinstance(payload["incident_bundles"], list)

    def test_batch_reference_stays_out_of_the_ring(self, tmp_path):
        system, observations = _long_stream()
        recorder = FlightRecorder(4, incident_dir=tmp_path)
        with _armed(recorder):
            report = run_loadgen(
                system, observations, STORM, speed=0, batch_reference=True
            )
        assert report.flight_snapshots == len(observations)
        assert recorder.snapshots_taken == len(observations)
        # The unbudgeted batch slots would carry partial=False: every
        # snapshot in the ring and the bundles is a truncated served slot.
        assert all(snapshot.partial for snapshot in recorder.snapshots)
        assert report.incident_bundles
        for path in report.incident_bundles:
            snapshots = read_bundle(path).snapshots
            assert all(s["recorded"]["partial"] for s in snapshots)

    def test_report_counters_default_to_zero_without_the_recorder(
        self, tiny_stream
    ):
        system, observations = tiny_stream
        report = run_loadgen(
            system,
            observations,
            ServiceConfig(),
            speed=0,
            batch_reference=False,
        )
        assert report.flight_snapshots == 0
        assert report.incident_bundles == ()
        assert report.slo_active == ()
        assert "flight recorder" not in report.render()
