"""Tests for the per-slot churn timeline."""

import dataclasses

import numpy as np
import pytest

from repro.analysis.timelines import churn_timeline
from repro.baselines import OnlineGreedy
from repro.core.allocation import AllocationSchedule
from repro.simulation.engine import run_algorithm


@pytest.fixture(scope="module")
def runs(small_instance):
    return {"greedy": run_algorithm(OnlineGreedy(), small_instance)}


class TestChurn:
    def test_first_slot_is_initial_provisioning(self, runs):
        churn = churn_timeline(runs["greedy"])
        assert churn[0] == pytest.approx(runs["greedy"].schedule.x[0].sum())

    def test_nonnegative(self, runs):
        assert np.all(churn_timeline(runs["greedy"]) >= 0.0)

    def test_static_schedule_has_zero_churn_after_start(self, runs):
        x = runs["greedy"].schedule.x
        held = AllocationSchedule(np.repeat(x[:1], len(x), axis=0))
        run = dataclasses.replace(runs["greedy"], schedule=held)
        churn = churn_timeline(run)
        assert np.allclose(churn[1:], 0.0)
