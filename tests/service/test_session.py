"""AllocationSession: streamed slots equal batch, errors never kill it."""

import pytest

from repro.core.regularization import OnlineRegularizedAllocator
from repro.service import (
    AllocationSession,
    ServiceConfig,
    observation_to_update,
    percentile,
)
from repro.simulation.spine import simulate


def _drive(session, observations):
    replies = [
        session.handle(observation_to_update(o)) for o in observations
    ]
    assert all(r["type"] == "slot_result" for r in replies)
    return replies


class TestStreamedEqualsBatch:
    def test_total_cost_matches_unbudgeted_simulate(self, tiny_stream):
        system, observations = tiny_stream
        session = AllocationSession(system, ServiceConfig(deadline_s=30.0))
        replies = _drive(session, observations)
        assert session.deadline_misses == 0
        assert not any(r["partial"] for r in replies)

        allocator = OnlineRegularizedAllocator()
        batch = simulate(
            allocator.as_controller(system),
            observations,
            system,
            keep_schedule=False,
        )
        assert session.total_cost == pytest.approx(batch.total_cost, abs=1e-9)

    def test_slot_result_carries_the_cost_components(self, tiny_stream):
        system, observations = tiny_stream
        session = AllocationSession(system, ServiceConfig())
        reply = session.handle(observation_to_update(observations[0]))
        components = (
            reply["operation"]
            + reply["service_quality"]
            + reply["reconfiguration"]
            + reply["migration"]
        )
        assert reply["cost"] == pytest.approx(components, rel=1e-9)
        assert reply["deadline_miss"] is False


class TestDegradationLadder:
    def test_iteration_budget_flags_misses_but_stays_feasible(self, tiny_stream):
        system, observations = tiny_stream
        session = AllocationSession(
            system, ServiceConfig(max_iterations=1)
        )
        replies = _drive(session, observations)
        assert all(r["partial"] for r in replies)
        assert all(r["deadline_miss"] for r in replies)
        assert session.deadline_misses == len(observations)
        report = session.stepper.feasibility()
        assert report.demand_violation <= 1e-6
        assert report.capacity_violation <= 1e-6
        assert report.negativity_violation <= 1e-9

    def test_wall_deadline_of_zero_marks_every_slot_missed(self, tiny_stream):
        system, observations = tiny_stream
        session = AllocationSession(system, ServiceConfig(deadline_s=0.0))
        reply = session.handle(observation_to_update(observations[0]))
        # deadline_s=0 keeps the solve partial (wall budget fires at the
        # first Newton check) and any positive latency exceeds it.
        assert reply["deadline_miss"]
        assert session.deadline_misses == 1


class TestErrorHandling:
    def test_torn_line_is_answered_and_the_session_survives(self, tiny_stream):
        system, observations = tiny_stream
        session = AllocationSession(system, ServiceConfig())
        reply = session.handle_line('{"type": "update", "slot"')
        assert reply["type"] == "error"
        assert reply["expected_slot"] == 0
        # The stream continues exactly where it was.
        good = session.handle(observation_to_update(observations[0]))
        assert good["type"] == "slot_result" and good["slot"] == 0

    def test_late_and_future_updates_leave_state_untouched(self, tiny_stream):
        system, observations = tiny_stream
        session = AllocationSession(system, ServiceConfig())
        session.handle(observation_to_update(observations[0]))
        late = session.handle(observation_to_update(observations[0]))
        assert late["type"] == "error" and "late update" in late["error"]
        future = session.handle(observation_to_update(observations[3]))
        assert future["type"] == "error" and "future update" in future["error"]
        assert session.expected_slot == 1
        assert session.handle(observation_to_update(observations[1]))[
            "type"
        ] == "slot_result"

    def test_unknown_type_is_an_error_reply(self, tiny_stream):
        system, _ = tiny_stream
        session = AllocationSession(system, ServiceConfig())
        reply = session.handle({"type": "bogus"})
        assert reply["type"] == "error"


class TestLifecycle:
    def test_welcome_describes_the_system(self, tiny_stream):
        system, _ = tiny_stream
        session = AllocationSession(
            system, ServiceConfig(deadline_s=0.25, max_iterations=7)
        )
        welcome = session.handle({"type": "hello"})
        assert welcome["type"] == "welcome"
        assert welcome["num_clouds"] == system.num_clouds
        assert welcome["num_users"] == system.num_users
        assert welcome["deadline_s"] == 0.25
        assert welcome["max_iterations"] == 7
        assert welcome["aggregated"] is False

    def test_stats_before_any_slot(self, tiny_stream):
        # Regression: stats on a fresh session must not touch the (empty)
        # cost accumulator — it used to raise and kill the connection.
        system, observations = tiny_stream
        session = AllocationSession(system, ServiceConfig())
        stats = session.handle({"type": "stats"})
        assert stats["type"] == "stats"
        assert stats["slots"] == 0
        assert stats["total_cost"] == 0.0
        assert stats["latency_p50_ms"] == 0.0
        # The session is still usable afterwards.
        reply = session.handle(observation_to_update(observations[0]))
        assert reply["type"] == "slot_result"

    def test_reset_starts_a_fresh_horizon(self, tiny_stream):
        system, observations = tiny_stream
        session = AllocationSession(system, ServiceConfig())
        first_pass = [
            session.handle(observation_to_update(o))["total_cost"]
            for o in observations[:3]
        ]
        reply = session.handle({"type": "reset"})
        assert reply == {"type": "reset_ok", "expected_slot": 0}
        assert session.expected_slot == 0
        assert session.results == []
        assert session.deadline_misses == 0
        second_pass = [
            session.handle(observation_to_update(o))["total_cost"]
            for o in observations[:3]
        ]
        # A reset horizon replays identically: no leaked carried decision.
        assert second_pass == pytest.approx(first_pass, rel=1e-9)

    def test_stats_reports_counts_and_percentiles(self, tiny_stream):
        system, observations = tiny_stream
        session = AllocationSession(system, ServiceConfig())
        _drive(session, observations[:2])
        stats = session.handle({"type": "stats"})
        assert stats["type"] == "stats"
        assert stats["slots"] == 2
        assert stats["expected_slot"] == 2
        assert stats["deadline_misses"] == 0
        assert stats["latency_p50_ms"] > 0.0
        assert stats["latency_p99_ms"] >= stats["latency_p50_ms"]

    def test_history_bound_trims_diagnostics(self, tiny_stream):
        system, observations = tiny_stream
        session = AllocationSession(system, ServiceConfig(history=2))
        _drive(session, observations)
        assert len(session._allocator.last_solves) <= 2


class TestPercentile:
    def test_exact_nearest_rank(self):
        values = [10.0, 20.0, 30.0, 40.0]
        assert percentile(values, 0.50) == 20.0
        assert percentile(values, 0.95) == 40.0
        assert percentile([5.0], 0.99) == 5.0
        assert percentile([], 0.50) == 0.0


class TestTracing:
    """The serving wire joins the caller's trace: an update's ``trace``
    field scopes the solve and the ``slot_result`` echoes its trace_id."""

    def test_traced_update_reply_echoes_the_trace_id(self, tiny_stream):
        from repro.telemetry import new_trace

        system, observations = tiny_stream
        session = AllocationSession(system, ServiceConfig())
        ctx = new_trace().child()
        reply = session.handle(observation_to_update(observations[0], trace=ctx))
        assert reply["type"] == "slot_result"
        assert reply["trace_id"] == ctx.trace_id

    def test_untraced_reply_has_no_trace_id_key(self, tiny_stream):
        system, observations = tiny_stream
        session = AllocationSession(system, ServiceConfig())
        reply = session.handle(observation_to_update(observations[0]))
        assert "trace_id" not in reply

    def test_malformed_trace_field_is_ignored_not_fatal(self, tiny_stream):
        system, observations = tiny_stream
        session = AllocationSession(system, ServiceConfig())
        update = observation_to_update(observations[0])
        update["trace"] = {"trace_id": 42}  # junk from a buggy client
        reply = session.handle(update)
        assert reply["type"] == "slot_result"
        assert "trace_id" not in reply

    def test_traced_solve_records_span_and_event(self, tiny_stream):
        from repro.telemetry import MetricsRegistry, new_trace, telemetry_session

        system, observations = tiny_stream
        registry = MetricsRegistry()
        ctx = new_trace().child()
        with telemetry_session(registry):
            session = AllocationSession(system, ServiceConfig())
            session.handle(observation_to_update(observations[0], trace=ctx))
            session.settle()
        spans = [s for s in registry.spans if s["name"] == "service.slot"]
        assert spans and spans[0]["meta"]["trace_id"] == ctx.trace_id
        events = [e for e in registry.events if e.get("type") == "service.slot"]
        assert events and events[0]["trace_id"] == ctx.trace_id


class TestTwoPhaseSlot:
    def _aggregate_slots(self, registry):
        return [e["slot"] for e in registry.events if e["type"] == "aggregate.slot"]

    def test_pending_slot_settles_on_stats_next_update_and_reset(
        self, tiny_stream
    ):
        from repro.aggregate import AggregationConfig
        from repro.telemetry import MetricsRegistry, telemetry_session

        system, observations = tiny_stream
        registry = MetricsRegistry()
        config = ServiceConfig(aggregation=AggregationConfig(shards=2))
        with telemetry_session(registry):
            session = AllocationSession(system, config)
            empty = session.stats()
            assert empty["deferred_p50_ms"] == empty["cpu_p50_ms"] == 0.0
            reply = session.handle(observation_to_update(observations[0]))
            assert reply["type"] == "slot_result"
            # The reply is out; the slot's records wait for settle().
            assert self._aggregate_slots(registry) == []
            assert session.controller.last_reports[-1].disagg_error is None
            stats = session.stats()
            assert self._aggregate_slots(registry) == [0]
            assert session.controller.last_reports[-1].disagg_error is not None
            assert stats["deferred_p50_ms"] > 0.0
            assert stats["cpu_p50_ms"] > 0.0
            session.handle(observation_to_update(observations[1]))
            session.handle(observation_to_update(observations[2]))
            assert self._aggregate_slots(registry) == [0, 1]
            session.reset_session()
            assert self._aggregate_slots(registry) == [0, 1, 2]
            session.handle(observation_to_update(observations[0]))
            session.settle()
        served = [e for e in registry.events if e["type"] == "service.slot"]
        assert len(self._aggregate_slots(registry)) == len(served) == 4
