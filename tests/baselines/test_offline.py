"""Tests for the offline-opt full-horizon LP (Lemma 1's folded form)."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import windowed_p0_lp
from repro.baselines.offline import OfflineOptimal
from repro.core.costs import total_cost
from repro.core.problem import CostWeights, ProblemInstance
from repro.experiments import fig2_scenario
from repro.experiments.adversarial import oscillating_price_instance
from repro.experiments.settings import ExperimentScale
from repro.pricing.bandwidth import MigrationPrices
from repro.simulation.scenario import Scenario
from tests.conftest import make_tiny_instance
from tests.experiments.adversarial import ping_pong_mobility_instance


def single_cloud_instance() -> ProblemInstance:
    """One cloud, one user: the optimum is forced and hand-computable."""
    return ProblemInstance(
        workloads=np.array([2.0]),
        capacities=np.array([5.0]),
        op_prices=np.array([[1.0], [2.0]]),
        reconfig_prices=np.array([0.5]),
        migration_prices=MigrationPrices(out=np.array([0.1]), into=np.array([0.3])),
        inter_cloud_delay=np.zeros((1, 1)),
        attachment=np.zeros((2, 1), dtype=int),
        access_delay=np.zeros((2, 1)),
    )


class TestOfflineOptimal:
    def test_single_cloud_forced_solution(self):
        instance = single_cloud_instance()
        schedule = OfflineOptimal().run(instance)
        # The only feasible choice is x = 2 in both slots.
        assert np.allclose(schedule.x, 2.0)
        # op = 2*1 + 2*2 = 6; rc = 0.5*2 slot 1 only; mg = 0.3*2 slot 1 only.
        assert total_cost(schedule, instance) == pytest.approx(6.0 + 1.0 + 0.6)

    def test_optimal_cost_matches_schedule_cost(self, tiny_instance):
        offline = OfflineOptimal()
        schedule = offline.run(tiny_instance)
        # The LP objective (plus the access-delay constant) equals the cost
        # model's evaluation of the returned schedule: the linearization of
        # the (.)+ terms is exact at the optimum.
        assert offline.optimal_cost(tiny_instance) == pytest.approx(
            total_cost(schedule, tiny_instance), rel=1e-6
        )

    def test_feasible(self, tiny_instance):
        schedule = OfflineOptimal().run(tiny_instance)
        schedule.require_feasible(tiny_instance, tol=1e-6)

    def test_beats_any_random_feasible_schedule(self, tiny_instance):
        from repro.core.allocation import AllocationSchedule
        from tests.conftest import random_schedule

        optimal = total_cost(OfflineOptimal().run(tiny_instance), tiny_instance)
        for seed in range(5):
            candidate = AllocationSchedule(random_schedule(tiny_instance, seed=seed))
            assert optimal <= total_cost(candidate, tiny_instance) + 1e-6

    def test_respects_weights(self):
        # With a huge dynamic weight the optimum avoids reallocation; with
        # zero dynamic weight it re-optimizes every slot independently.
        static_only = make_tiny_instance(weights=CostWeights(static=1.0, dynamic=0.0))
        frozen = make_tiny_instance(weights=CostWeights(static=1.0, dynamic=50.0))
        x_static = OfflineOptimal().run(static_only)
        x_frozen = OfflineOptimal().run(frozen)
        churn_static = np.abs(np.diff(x_static.x, axis=0)).sum()
        churn_frozen = np.abs(np.diff(x_frozen.x, axis=0)).sum()
        assert churn_frozen <= churn_static + 1e-9

    def test_lp_dimensions(self, tiny_instance):
        builder = OfflineOptimal.build_lp(tiny_instance)
        t, i, j = (
            tiny_instance.num_slots,
            tiny_instance.num_clouds,
            tiny_instance.num_users,
        )
        # x + u + the folded migration block m (Lemma 1).
        assert builder.num_variables == 2 * t * i * j + t * i
        # Per slot: demand, capacity, reconfiguration and migration rows.
        assert builder.num_constraints == t * (j + 2 * i + i * j)


def _split_objective(instance: ProblemInstance) -> float:
    """The split-form (``m_in``/``m_out``) LP optimum over [0, T) from zeros."""
    x_prev = np.zeros((instance.num_clouds, instance.num_users))
    return windowed_p0_lp(instance, 0, instance.num_slots, x_prev).solve().objective


def assert_fold_matches_split(instance: ProblemInstance) -> None:
    """The folded LP has the split LP's optimum, and its plan costs exactly it."""
    offline = OfflineOptimal()
    folded = offline.build_lp(instance).solve().objective
    assert folded == pytest.approx(_split_objective(instance), rel=1e-12, abs=0.0)
    optimum = offline.optimal_cost(instance)
    replayed = total_cost(offline.run(instance), instance)
    assert replayed == pytest.approx(optimum, rel=1e-9, abs=0.0)


FOLD_CASES = {
    "fig2": lambda: fig2_scenario(ExperimentScale()).build(seed=2017),
    "taxi": lambda: Scenario(num_users=6, num_slots=4).build(seed=7),
    "oscillating-prices": lambda: oscillating_price_instance(num_slots=8),
    "ping-pong": lambda: ping_pong_mobility_instance(num_slots=8),
    "tiny": make_tiny_instance,
    "tiny-no-dynamic-prices": lambda: make_tiny_instance(dynamic_prices=False),
}


@pytest.mark.parametrize("case", sorted(FOLD_CASES))
def test_folded_lp_matches_split_form(case):
    assert_fold_matches_split(FOLD_CASES[case]())


_PRICE = st.sampled_from([0.0, 0.05, 0.4, 1.0, 3.0])


@given(
    into=st.lists(_PRICE, min_size=3, max_size=3),
    out=st.lists(_PRICE, min_size=3, max_size=3),
    seed=st.integers(min_value=0, max_value=10_000),
    num_slots=st.integers(min_value=1, max_value=5),
)
@settings(max_examples=30, deadline=None)
def test_fold_with_asymmetric_and_zero_migration_prices(into, out, seed, num_slots):
    """Lemma 1's fold is exact whatever the split of b between in and out."""
    instance = replace(
        make_tiny_instance(num_slots=num_slots, seed=seed),
        migration_prices=MigrationPrices(out=np.array(out), into=np.array(into)),
    )
    assert_fold_matches_split(instance)
