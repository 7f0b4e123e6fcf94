"""Tests for the online regularized allocator (the paper's algorithm)."""

import numpy as np
import pytest

from repro.core.regularization import OnlineRegularizedAllocator, repair_feasibility
from tests.solvers.trust_constr import TrustConstrOracle


def repair(x, instance, slot=0):
    """Repair against a slot's workloads and attached stations."""
    return repair_feasibility(
        x, instance.workloads, np.asarray(instance.attachment)[slot]
    )


class TestConfiguration:
    def test_invalid_eps(self):
        with pytest.raises(ValueError):
            OnlineRegularizedAllocator(eps1=0.0)
        with pytest.raises(ValueError):
            OnlineRegularizedAllocator(eps2=-1.0)

    def test_invalid_tol(self):
        with pytest.raises(ValueError):
            OnlineRegularizedAllocator(tol=0.0)

    def test_name(self):
        assert OnlineRegularizedAllocator().name == "online-approx"


class TestRun:
    def test_feasible_over_time(self, tiny_instance):
        schedule = OnlineRegularizedAllocator().run(tiny_instance)
        # Theorem 1: the per-slot P2 optima form a feasible P0 trajectory.
        schedule.require_feasible(tiny_instance, tol=1e-6)
        assert schedule.num_slots == tiny_instance.num_slots

    def test_deterministic(self, tiny_instance):
        a = OnlineRegularizedAllocator().run(tiny_instance)
        b = OnlineRegularizedAllocator().run(tiny_instance)
        assert np.allclose(a.x, b.x)

    def test_backends_agree(self, tiny_instance):
        from repro.core.costs import total_cost

        scipy_schedule = OnlineRegularizedAllocator(
            backend=TrustConstrOracle()
        ).run(tiny_instance)
        ipm_schedule = OnlineRegularizedAllocator().run(tiny_instance)
        # Per-slot solver differences compound along the trajectory, so the
        # allocations agree loosely and the objective tightly.
        assert np.allclose(scipy_schedule.x, ipm_schedule.x, atol=2e-2)
        assert total_cost(scipy_schedule, tiny_instance) == pytest.approx(
            total_cost(ipm_schedule, tiny_instance), rel=1e-3
        )

    def test_last_solves_recorded(self, tiny_instance):
        algorithm = OnlineRegularizedAllocator()
        algorithm.run(tiny_instance)
        assert len(algorithm.last_solves) == tiny_instance.num_slots
        assert all(s.iterations >= 0 for s in algorithm.last_solves)

    def test_step_respects_previous_allocation(self, tiny_instance):
        algorithm = OnlineRegularizedAllocator()
        x_prev = np.zeros((tiny_instance.num_clouds, tiny_instance.num_users))
        x1, _ = algorithm.step(tiny_instance, 0, x_prev)
        x2, _ = algorithm.step(tiny_instance, 1, x1)
        assert x1.shape == x2.shape == x_prev.shape
        # Both steps satisfy the demand constraint.
        assert np.all(x1.sum(axis=0) >= tiny_instance.workloads - 1e-6)
        assert np.all(x2.sum(axis=0) >= tiny_instance.workloads - 1e-6)

    def test_eps_changes_trajectory(self, tiny_instance):
        small = OnlineRegularizedAllocator(eps1=0.01, eps2=0.01).run(tiny_instance)
        large = OnlineRegularizedAllocator(eps1=100.0, eps2=100.0).run(tiny_instance)
        assert not np.allclose(small.x, large.x, atol=1e-3)


class TestRepair:
    def test_clips_negatives(self, tiny_instance):
        x = np.full((tiny_instance.num_clouds, tiny_instance.num_users), 2.0)
        x[0, 0] = -1e-7
        repaired = repair(x, tiny_instance)
        assert repaired.min() >= 0.0

    def test_scales_deficient_users(self, tiny_instance):
        workloads = np.asarray(tiny_instance.workloads)
        x = np.full(
            (tiny_instance.num_clouds, tiny_instance.num_users),
            workloads[None, :] / tiny_instance.num_clouds,
        ) * (1.0 - 1e-7)
        repaired = repair(x, tiny_instance)
        assert np.all(repaired.sum(axis=0) >= workloads - 1e-12)

    def test_noop_on_feasible(self, tiny_instance):
        workloads = np.asarray(tiny_instance.workloads)
        x = np.broadcast_to(
            workloads[None, :] / tiny_instance.num_clouds,
            (tiny_instance.num_clouds, tiny_instance.num_users),
        ).copy() * 1.01
        repaired = repair(x, tiny_instance)
        assert np.allclose(repaired, x)

    def test_all_zero_column_recovered(self, tiny_instance):
        x = np.zeros((tiny_instance.num_clouds, tiny_instance.num_users))
        repaired = repair(x, tiny_instance)
        assert np.all(
            repaired.sum(axis=0) >= np.asarray(tiny_instance.workloads) - 1e-12
        )

    def test_all_zero_column_lands_at_attached_cloud(self, tiny_instance):
        """Regression: the fallback places a zero-column user's workload at
        its attached cloud (not spread uniformly), per the documented
        behavior."""
        workloads = np.asarray(tiny_instance.workloads)
        for slot in range(tiny_instance.num_slots):
            attachment = np.asarray(tiny_instance.attachment)[slot]
            x = np.zeros((tiny_instance.num_clouds, tiny_instance.num_users))
            repaired = repair(x, tiny_instance, slot)
            for j in range(tiny_instance.num_users):
                expected = np.zeros(tiny_instance.num_clouds)
                expected[attachment[j]] = workloads[j]
                np.testing.assert_array_equal(repaired[:, j], expected)

    def test_mixed_zero_and_deficient_columns(self, tiny_instance):
        """A zero column is repaired without disturbing scaled neighbors."""
        workloads = np.asarray(tiny_instance.workloads)
        x = np.full(
            (tiny_instance.num_clouds, tiny_instance.num_users),
            workloads[None, :] / tiny_instance.num_clouds,
        ) * (1.0 - 1e-7)
        x[:, 1] = 0.0  # user 1 lost its whole allocation
        repaired = repair(x, tiny_instance)
        assert np.all(repaired.sum(axis=0) >= workloads - 1e-12)
        attached = int(np.asarray(tiny_instance.attachment)[0, 1])
        assert repaired[attached, 1] == workloads[1]
