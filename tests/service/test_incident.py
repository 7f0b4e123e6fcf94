"""Session-level incident plane: recorder, SLOs, and loadgen surface.

A deadline-miss storm on a serving session must leave a replayable
incident bundle behind without any global telemetry session — the
session feeds its slot records to its alert evaluator — and the
recorder/SLO counters must travel through ``stats`` replies into the
loadgen report. With telemetry enabled, the alerts and ``slo.burn``
transitions also reach the manifest.
"""

from __future__ import annotations

from repro.service import AllocationSession, ServiceConfig, run_loadgen
from repro.simulation.observations import (
    SystemDescription,
    observations_from_instance,
)
from repro.telemetry import read_bundle, replay_bundle
from tests.conftest import make_tiny_instance


def _long_stream(num_slots: int = 12):
    """A stream long enough for the default SLOs (min_samples=8) to fire."""
    instance = make_tiny_instance(num_slots=num_slots)
    system = SystemDescription.from_instance(instance)
    return system, observations_from_instance(instance)


def _storm_config(tmp_path, **overrides):
    kwargs = dict(
        max_iterations=1,
        flight_slots=4,
        incident_dir=str(tmp_path),
        slo=True,
    )
    kwargs.update(overrides)
    return ServiceConfig(**kwargs)


class TestSessionIncidentPlane:
    def test_deadline_miss_storm_dumps_a_replayable_bundle(
        self, tiny_stream, tmp_path
    ):
        system, observations = tiny_stream
        session = AllocationSession(system, _storm_config(tmp_path))
        for observation in observations:
            result = session.step(observation)
            assert result.partial
        bundles = session.recorder.bundles_written
        assert bundles, "the miss storm should have dumped a bundle"
        bundle = read_bundle(bundles[0])
        assert bundle.reason.startswith("alert:")
        report = replay_bundle(bundle)
        assert report.ok, report.render()

    def test_recorder_disabled_by_default(self, tiny_stream):
        system, observations = tiny_stream
        session = AllocationSession(system, ServiceConfig())
        session.step(observations[0])
        assert session.recorder is None
        assert session.alerts is None
        stats = session.stats()
        assert stats["flight_snapshots"] == 0
        assert stats["incident_bundles"] == []
        assert stats["slo_active"] == []

    def test_stats_reports_recorder_and_slo_counters(self, tmp_path):
        system, observations = _long_stream()
        session = AllocationSession(system, _storm_config(tmp_path))
        for observation in observations:
            session.step(observation)
        stats = session.stats()
        assert stats["flight_snapshots"] == len(observations)
        assert len(stats["incident_bundles"]) >= 1
        assert all(isinstance(p, str) for p in stats["incident_bundles"])
        assert "deadline-miss" in stats["slo_active"]

    def test_reset_clears_the_incident_plane(self, tiny_stream, tmp_path):
        system, observations = tiny_stream
        session = AllocationSession(system, _storm_config(tmp_path))
        for observation in observations:
            session.step(observation)
        session.reset_session()
        assert len(session.recorder.snapshots) == 0
        assert session.alerts.active == ()
        # The session accepts slot 0 again and keeps recording.
        session.step(observations[0])
        session.settle()
        assert len(session.recorder.snapshots) == 1

    def test_memory_only_recorder_keeps_the_ring_without_dumping(
        self, tiny_stream
    ):
        system, observations = tiny_stream
        config = ServiceConfig(max_iterations=1, flight_slots=3)
        session = AllocationSession(system, config)
        for observation in observations:
            session.step(observation)
        assert session.recorder.bundles_written == []
        assert len(session.recorder.snapshots) == 3


class TestLoadgenSurface:
    def test_report_carries_recorder_counters_over_the_wire(self, tmp_path):
        system, observations = _long_stream()
        report = run_loadgen(
            system,
            observations,
            _storm_config(tmp_path),
            speed=0,
            batch_reference=False,
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
