"""Loadgen: the streamed replay must reproduce the batch numbers.

These are the in-process versions of the CI ``service-smoke`` gates:
an unhurried replay has zero deadline misses and a realized cost equal
to batch ``simulate()`` to solver precision, while a starved iteration
budget engages the degradation ladder on every slot yet stays feasible.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.mobility import ReplayMobility
from repro.service import (
    LoadgenReport,
    ServiceConfig,
    run_loadgen,
)
from repro.simulation.observations import observations_from_instance
from repro.simulation.scenario import Scenario


class TestReplayGates:
    def test_generous_replay_matches_batch_exactly(self, tiny_stream):
        system, observations = tiny_stream
        report = run_loadgen(
            system,
            observations,
            ServiceConfig(deadline_s=30.0),
            speed=0,
        )
        assert report.slots == len(observations)
        assert report.deadline_misses == 0
        assert report.partial_slots == 0
        assert abs(report.cost_delta) <= 1e-9
        assert report.latency_p99_ms >= report.latency_p50_ms > 0.0
        # The session's stats reply carries the two phases' timings.
        assert report.cpu_p50_ms > 0.0 and report.deferred_p50_ms >= 0.0

    def test_starved_budget_degrades_every_slot(self, tiny_stream):
        system, observations = tiny_stream
        report = run_loadgen(
            system,
            observations,
            ServiceConfig(max_iterations=1),
            speed=0,
            batch_reference=False,
        )
        assert report.partial_slots == report.slots
        assert report.deadline_misses == report.slots
        assert np.isnan(report.batch_cost)
        assert np.isfinite(report.streamed_cost)

    def test_report_renders_and_serializes(self, tiny_stream):
        system, observations = tiny_stream
        report = run_loadgen(
            system, observations[:2], ServiceConfig(), speed=0
        )
        assert isinstance(report, LoadgenReport)
        text = report.render()
        assert "Loadgen replay: 2 slots" in text
        assert "batch cost" in text
        as_dict = report.as_dict()
        assert as_dict["slots"] == 2
        assert as_dict["streamed_cost"] == report.streamed_cost


class TestArgumentValidation:
    def test_empty_stream_is_rejected(self, tiny_stream):
        system, _ = tiny_stream
        with pytest.raises(ValueError, match="at least one observation"):
            run_loadgen(system, [], ServiceConfig())

    def test_host_and_port_must_travel_together(self, tiny_stream):
        system, observations = tiny_stream
        with pytest.raises(ValueError, match="host and port together"):
            run_loadgen(
                system, observations, ServiceConfig(), host="127.0.0.1"
            )


def _recorded_trace():
    scenario = Scenario(num_users=4, num_slots=4)
    trace = scenario.resolve_mobility().generate(4, 4, np.random.default_rng(7))
    return scenario, trace


class TestTraceReplay:
    def test_recorded_trace_streams_through_the_scenario_pipeline(self):
        scenario, trace = _recorded_trace()
        # Provisioning (capacities, prices) is re-derived for the replayed
        # trace, but the mobility itself is the recorded one, verbatim.
        replayed = replace(scenario, mobility=ReplayMobility(trace)).build(
            seed=99
        )
        assert np.array_equal(replayed.attachment, trace.attachment)

        observations = observations_from_instance(replayed)
        assert len(observations) == trace.num_slots
        assert np.array_equal(observations[2].attachment, trace.attachment[2])

    def test_shape_mismatches_fail_loudly(self):
        _, trace = _recorded_trace()
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="replay trace has"):
            ReplayMobility(trace).generate(9, 4, rng)
        with pytest.raises(ValueError, match="replay trace has"):
            ReplayMobility(trace).generate(4, 9, rng)


class TestTracedReplay:
    def test_every_served_slot_joins_the_replay_trace(self, tiny_stream):
        # The acceptance pin for serving-side tracing: a replay run under
        # an active trace root sends a child context with every update
        # over the real socket, and every server-side solve records the
        # replay's trace_id — one trace covers the whole loadgen run.
        from repro.telemetry import (
            MetricsRegistry,
            current_trace,
            telemetry_session,
            traced_root,
        )

        system, observations = tiny_stream
        registry = MetricsRegistry()
        with telemetry_session(registry):
            with traced_root("serve", command="loadgen"):
                root = current_trace()
                report = run_loadgen(
                    system,
                    observations[:3],
                    ServiceConfig(),
                    speed=0,
                    batch_reference=False,
                )
        assert report.slots == 3
        events = [e for e in registry.events if e.get("type") == "service.slot"]
        assert len(events) == 3
        assert {e["trace_id"] for e in events} == {root.trace_id}

    def test_untraced_replay_records_no_trace_ids(self, tiny_stream):
        from repro.telemetry import MetricsRegistry, telemetry_session

        system, observations = tiny_stream
        registry = MetricsRegistry()
        with telemetry_session(registry):
            run_loadgen(
                system,
                observations[:2],
                ServiceConfig(),
                speed=0,
                batch_reference=False,
            )
        events = [e for e in registry.events if e.get("type") == "service.slot"]
        assert len(events) == 2
        assert all("trace_id" not in e for e in events)
