"""Tests for the offline-opt full-horizon LP."""

import numpy as np
import pytest

from repro.baselines.offline import OfflineOptimal
from repro.core.costs import total_cost
from repro.core.problem import CostWeights, ProblemInstance
from repro.pricing.bandwidth import MigrationPrices
from tests.conftest import make_tiny_instance


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
        # x + u + m_in + m_out variable blocks.
        assert builder.num_variables == t * i * j * 3 + t * i
        # Per slot: demand, capacity, reconfiguration, m_in and m_out rows
        # (slot 0's m_out >= 0 - x rows are vacuous but present).
        assert builder.num_constraints == t * (j + 2 * i + 2 * i * j)
