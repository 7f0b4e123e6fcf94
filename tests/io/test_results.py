"""Round-trip tests for result serialization."""

import json

import numpy as np
import pytest

from repro.baselines import OfflineOptimal, OnlineGreedy
from repro.io.results import (
    comparison_to_dict,
    run_result_to_dict,
    save_comparison_json,
)
from repro.simulation.engine import compare_algorithms, run_algorithm


@pytest.fixture(scope="module")
def comparison(small_instance):
    return compare_algorithms([OfflineOptimal(), OnlineGreedy()], small_instance)


class TestRunResultDict:
    def test_fields(self, small_instance):
        result = run_algorithm(OnlineGreedy(), small_instance)
        data = run_result_to_dict(result)
        assert data["algorithm"] == "online-greedy"
        assert data["costs"]["total"] == pytest.approx(result.total_cost)
        assert len(data["per_slot_total"]) == small_instance.num_slots
        assert "schedule" not in data

    def test_schedule_opt_in(self, small_instance):
        result = run_algorithm(OnlineGreedy(), small_instance)
        data = run_result_to_dict(result, include_schedule=True)
        assert np.asarray(data["schedule"]).shape == result.schedule.x.shape


class TestComparisonJson:
    def test_round_trip(self, comparison, tmp_path):
        path = tmp_path / "comparison.json"
        save_comparison_json(comparison, path)
        loaded = json.loads(path.read_text())
        assert loaded["baseline"] == "offline-opt"
        assert loaded["ratios"]["offline-opt"] == pytest.approx(1.0)
        assert loaded["ratios"]["online-greedy"] == pytest.approx(
            comparison.ratio("online-greedy")
        )
        assert set(loaded["runs"]) == {"offline-opt", "online-greedy"}

    def test_dict_structure(self, comparison):
        data = comparison_to_dict(comparison)
        assert data["baseline_cost"] == pytest.approx(comparison.baseline_cost)
