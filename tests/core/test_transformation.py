"""Tests for the gap-preserving transformation P0 -> P1 (Lemma 1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocation import AllocationSchedule
from repro.core.costs import migration_volumes
from repro.core.problem import CostWeights
from repro.core.transformation import combined_migration_prices, p1_migration_cost
from tests.conftest import make_tiny_instance, random_schedule
from tests.core.lemma1 import (
    lemma1_gap,
    p0_objective,
    p1_objective,
    per_user_inbound_migration,
    transformation_constant,
)


class TestCombinedPrices:
    def test_formula(self, tiny_instance):
        combined = combined_migration_prices(tiny_instance)
        assert np.allclose(
            combined,
            tiny_instance.migration_prices.out + tiny_instance.migration_prices.into,
        )

    def test_sigma(self, tiny_instance):
        sigma = transformation_constant(tiny_instance)
        expected = float(
            np.dot(tiny_instance.migration_prices.out, tiny_instance.capacities)
        )
        assert sigma == pytest.approx(expected)


class TestP1Objective:
    def test_p1_counts_only_inbound(self, tiny_instance):
        schedule = AllocationSchedule(random_schedule(tiny_instance, seed=1))
        _, z_in = migration_volumes(schedule)
        expected = z_in @ combined_migration_prices(tiny_instance)
        assert np.allclose(p1_migration_cost(schedule, tiny_instance), expected)

    def test_p1_equals_p0_without_outbound_moves(self, tiny_instance):
        # A monotone (only-growing) schedule has no outbound migration, and
        # P1's combined price equals P0's b_in + b_out applied to inflow.
        t, i, j = (
            tiny_instance.num_slots,
            tiny_instance.num_clouds,
            tiny_instance.num_users,
        )
        base = random_schedule(tiny_instance, seed=2)[0]
        x = np.stack([base * (0.5 + 0.1 * k) for k in range(t)], axis=0)
        schedule = AllocationSchedule(x)
        z_out, _ = migration_volumes(schedule)
        assert np.all(z_out == 0.0)
        # P0 charges b_in only; P1 charges b_in + b_out: P1 >= P0 holds with
        # the gap exactly the b_out part of the inflow.
        assert p1_objective(schedule, tiny_instance) >= p0_objective(
            schedule, tiny_instance
        )


class TestLemma1:
    @given(seed=st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=30, deadline=None)
    def test_gap_nonnegative_on_feasible_schedules(self, seed):
        """Lemma 1: P1 <= P0 + w_d * sigma for any feasible schedule."""
        instance = make_tiny_instance(seed=seed % 11)
        schedule = AllocationSchedule(random_schedule(instance, seed=seed))
        assert lemma1_gap(schedule, instance) >= -1e-9

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        mu=st.floats(min_value=0.01, max_value=100.0),
    )
    @settings(max_examples=20, deadline=None)
    def test_gap_nonnegative_under_weights(self, seed, mu):
        instance = make_tiny_instance(weights=CostWeights.from_mu(mu), seed=seed % 7)
        schedule = AllocationSchedule(random_schedule(instance, seed=seed))
        assert lemma1_gap(schedule, instance) >= -1e-9

    def test_gap_zero_for_empty_schedule(self, tiny_instance):
        # All-zero schedule: no migration at all, so
        # P0 = P1 (static parts equal) and the gap is exactly w_d * sigma.
        schedule = AllocationSchedule.zeros(
            tiny_instance.num_slots, tiny_instance.num_clouds, tiny_instance.num_users
        )
        gap = lemma1_gap(schedule, tiny_instance)
        assert gap == pytest.approx(
            tiny_instance.weights.dynamic * transformation_constant(tiny_instance)
        )


class TestPerUserMigration:
    def test_decomposition_matches_cloud_volumes(self, tiny_instance):
        """z_{i,t}^in = sum_j z_{i,j,t} (eq. 9's decomposition)."""
        schedule = AllocationSchedule(random_schedule(tiny_instance, seed=3))
        per_user = per_user_inbound_migration(schedule)
        _, z_in = migration_volumes(schedule)
        assert np.allclose(per_user.sum(axis=2), z_in)

    def test_nonnegative(self, tiny_instance):
        schedule = AllocationSchedule(random_schedule(tiny_instance, seed=4))
        assert np.all(per_user_inbound_migration(schedule) >= 0.0)

    def test_first_slot_equals_allocation(self, tiny_instance):
        schedule = AllocationSchedule(random_schedule(tiny_instance, seed=5))
        per_user = per_user_inbound_migration(schedule)
        assert np.allclose(per_user[0], schedule.x[0])
