"""Named suites produce well-formed, gateable records at tiny scale."""

from __future__ import annotations

import pytest

from repro.bench import SUITES, compare_records, run_suite, suites
from repro.experiments.settings import ExperimentScale
from repro.telemetry import get_registry, telemetry_session

TINY = ExperimentScale(num_users=4, num_slots=2, repetitions=1, seed=7)


@pytest.fixture(scope="module")
def smoke_record():
    return run_suite("smoke", TINY)


class TestSmokeSuite:
    def test_expected_metrics_and_kinds(self, smoke_record):
        kinds = {n: m.kind for n, m in smoke_record.metrics.items()}
        assert kinds == {
            "online_run_wall_s": "time",
            "solver_iterations": "count",
            "solves": "count",
            "online_cost": "cost",
            "final_ratio": "cost",
            "worst_relative_gap": "cost",
            "worst_solver_relative_gap": "cost",
        }

    def test_solver_duals_certify_every_slot(self, smoke_record):
        assert smoke_record.metrics["worst_solver_relative_gap"].value <= 1e-6

    def test_diagnostics_capture_algorithm_quality(self, smoke_record):
        diagnostics = smoke_record.diagnostics
        assert diagnostics["certificates_ok"] is True
        assert diagnostics["ratio_certified"] is True
        assert diagnostics["ratio_bound"] > 1.0
        # The suite's own telemetry session harvested solver traces.
        assert diagnostics["convergence"]["solves"] == TINY.num_slots
        assert diagnostics["unconverged"] == 0

    def test_record_is_stamped(self, smoke_record):
        assert smoke_record.suite == "smoke"
        assert smoke_record.config["num_users"] == TINY.num_users
        assert smoke_record.created_unix > 0

    def test_rerun_is_deterministic_on_gated_metrics(self, smoke_record):
        report = compare_records(smoke_record, run_suite("smoke", TINY))
        assert report.ok  # counts and costs reproduce exactly

    def test_suite_session_does_not_leak(self, smoke_record):
        from repro.telemetry import get_registry

        assert not get_registry().enabled


class TestAggregateSuite:
    @pytest.fixture(scope="class")
    def record(self):
        return run_suite("aggregate", TINY)

    def test_expected_metrics_and_kinds(self, record):
        kinds = {n: m.kind for n, m in record.metrics.items()}
        for label in ("10k", "100k", "1m"):
            assert kinds[f"agg_wall_s_{label}"] == "time"
            assert kinds[f"agg_settle_s_{label}"] == "time"
            assert kinds[f"agg_decode_s_{label}"] == "time"
            assert kinds[f"cohorts_{label}"] == "count"
            assert kinds[f"reduction_{label}"] == "count"
        assert kinds["direct_wall_s_j120"] == "time"
        assert kinds["feasibility_residual"] == "cost"

    def test_disaggregated_slots_stay_feasible(self, record):
        assert record.metrics["feasibility_residual"].value <= 1e-8

    def test_diagnostics_describe_the_scaling_run(self, record):
        diagnostics = record.diagnostics
        # User counts scale with the suite scale but the labels persist.
        assert set(diagnostics["user_counts"]) == {"10k", "100k", "1m"}
        assert diagnostics["user_counts"]["1m"] > diagnostics["user_counts"]["10k"]
        assert diagnostics["wall_ratio_1m_vs_direct"] > 0
        assert diagnostics["error_bound_1m"] >= diagnostics["spread_1m"] >= 0

    def test_gated_metrics_reproduce_exactly(self, record):
        report = compare_records(record, run_suite("aggregate", TINY))
        assert report.ok

    def test_walls_are_the_fastest_of_fresh_controllers(self, monkeypatch):
        # Three fresh controllers, each timed over its own observe and then
        # its own settle: each wall is the fastest, the controller,
        # decision and telemetry the first run's.
        clock = iter([0.0, 5.0, 6.0, 10.0, 12.0, 16.0, 20.0, 23.0, 24.0])
        # observe walls 5, 2, 3; settle walls 1, 4, 1
        monkeypatch.setattr(suites.time, "perf_counter", lambda: next(clock))
        made = []

        class Controller:
            def __init__(self):
                made.append(self)

            def observe(self, observation):
                get_registry().counter("test.observes").inc()
                return len(made), observation

            def settle(self):
                get_registry().counter("test.settles").inc()

        with telemetry_session() as registry:
            controller, decision, wall, settle = suites._fastest_fresh_slot(
                Controller, "slot"
            )
        assert len(made) == suites.WALL_REPEATS == 3
        assert controller is made[0] and decision == (1, "slot")
        assert wall == 2.0
        assert settle == 1.0
        assert registry.counter("test.observes").value == 1
        assert registry.counter("test.settles").value == 1

    def test_decode_is_the_fastest_of_three(self, monkeypatch):
        system, observation = suites._city_slot(30, seed=7)
        clock = iter([0.0, 5.0, 10.0, 12.0, 20.0, 23.0])  # decodes 5, 2, 3
        monkeypatch.setattr(suites.time, "perf_counter", lambda: next(clock))
        assert suites._fastest_decode(system, observation) == 2.0
        assert next(clock, None) is None


class TestSolverSuite:
    def test_solver_suite_runs_and_reports_newton_steps(self):
        record = run_suite("solver", TINY)
        metrics = record.metrics
        assert metrics["iterations"].value > 0
        # The predictor-corrector kernel certifies P2 in about 10 steps.
        assert 0 < metrics["newton_per_solve"].value <= 30
        assert metrics["online_cost"].value > 0


class TestRegistryOfSuites:
    def test_all_declared_suites_are_callable(self):
        assert set(SUITES) == {
            "smoke", "solver", "fig2", "fig5", "parallel", "batched",
            "aggregate", "service",
        }

    def test_unknown_suite_raises_with_known_names(self):
        with pytest.raises(ValueError, match="smoke"):
            run_suite("nope", TINY)
