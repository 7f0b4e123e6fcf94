"""Interior-point convergence traces recorded through telemetry."""

from __future__ import annotations

from repro.core.regularization import OnlineRegularizedAllocator
from repro.diagnostics import summarize_convergence, trace_events
from repro.simulation.scenario import Scenario
from repro.telemetry import (
    read_manifest,
    telemetry_session,
    write_manifest,
)


def _run_with_traces():
    instance = Scenario(num_users=5, num_slots=3).build(seed=6)
    algorithm = OnlineRegularizedAllocator()
    with telemetry_session() as registry:
        algorithm.run(instance)
    return instance, registry


class TestTraceEmission:
    def test_one_trace_event_per_solve(self):
        instance, registry = _run_with_traces()
        events = trace_events(registry)
        assert len(events) == instance.num_slots
        for event in events:
            assert event["iterations"] > 0
            series = event["trace"]
            assert len(series) == event["iterations"]  # one entry per step
            for step in series:
                assert set(step) == {
                    "mu", "complementarity", "dual_residual", "step"
                }
                assert 0.0 < step["step"] <= 1.0
            # The dual residual falls with every step ...
            residual = [step["dual_residual"] for step in series]
            assert all(b < a for a, b in zip(residual, residual[1:]))
            # ... and the returned point is certified at the stop target.
            assert 0.0 <= event["gap_final"] <= 1e-9

    def test_no_events_without_telemetry(self):
        instance = Scenario(num_users=5, num_slots=2).build(seed=6)
        algorithm = OnlineRegularizedAllocator()
        with telemetry_session() as registry:
            pass  # session closed before the run
        algorithm.run(instance)
        assert trace_events(registry) == []


class TestSummaries:
    def test_summary_from_registry(self):
        instance, registry = _run_with_traces()
        summary = summarize_convergence(registry)
        assert summary.solves == instance.num_slots
        assert summary.total_iterations > 0
        assert summary.max_iterations <= summary.total_iterations
        assert summary.mean_iterations > 0
        assert summary.max_final_mu < 1e-6
        assert summary.max_final_gap <= 1e-9
        assert summary.uncertified == 0
        as_dict = summary.as_dict()
        assert as_dict["solves"] == summary.solves

    def test_summary_round_trips_through_manifest(self, tmp_path):
        _, registry = _run_with_traces()
        path = write_manifest(tmp_path / "run.jsonl", registry)
        record = read_manifest(path)
        assert summarize_convergence(record) == summarize_convergence(registry)

    def test_summary_of_empty_source(self):
        summary = summarize_convergence([])
        assert summary.solves == 0
        assert summary.mean_iterations == 0.0

    def test_plain_iterable_source(self):
        events = [
            {"type": "solver.ipm.trace", "iterations": 7, "trace": []},
            {"type": "other"},
        ]
        assert len(trace_events(events)) == 1
        assert summarize_convergence(events).total_iterations == 7
