"""Tests for the executable competitive analysis (paper Section IV)."""

import numpy as np
import pytest

from repro.baselines import OfflineOptimal, OnlineGreedy
from repro.core.duality import (
    DualityCertificate,
    duality_certificate,
    p1_value,
    recover_multipliers,
    recover_slot_duals,
    solve_dual,
    solve_p3,
)
from repro.core.regularization import OnlineRegularizedAllocator
from repro.core.subproblem import RegularizedSubproblem
from repro.diagnostics import recover_multipliers as diagnostics_recover_multipliers
from tests.conftest import make_tiny_instance


@pytest.fixture(scope="module")
def instance():
    return make_tiny_instance()


@pytest.fixture(scope="module")
def p3_solution(instance):
    return solve_p3(instance)


@pytest.fixture(scope="module")
def dual_value(instance):
    return solve_dual(instance)


class TestP3:
    def test_p3_lower_bounds_any_feasible_p1(self, instance, p3_solution):
        """P3 relaxes P1: its optimum is below P1 of every feasible schedule."""
        _, p3_opt = p3_solution
        for algorithm in (OfflineOptimal(), OnlineGreedy(), OnlineRegularizedAllocator()):
            schedule = algorithm.run(instance)
            assert p3_opt <= p1_value(schedule, instance) + 1e-6

    def test_p3_solution_meets_demand(self, instance, p3_solution):
        schedule, _ = p3_solution
        assert np.all(
            schedule.user_totals() >= np.asarray(instance.workloads)[None, :] - 1e-6
        )

    def test_p3_matches_offline_p1_when_capacity_slack(self, instance, p3_solution):
        """On instances where (13c) is as strong as true capacity (demand
        binding at optimum), P3* equals the P1 optimum."""
        _, p3_opt = p3_solution
        offline = OfflineOptimal().run(instance)
        assert p3_opt == pytest.approx(p1_value(offline, instance), rel=1e-5)


class TestWeakAndStrongDuality:
    def test_weak_duality(self, p3_solution, dual_value):
        _, p3_opt = p3_solution
        assert dual_value <= p3_opt + 1e-6

    def test_strong_duality(self, p3_solution, dual_value):
        """P3 and D are an LP primal/dual pair: optima coincide."""
        _, p3_opt = p3_solution
        assert dual_value == pytest.approx(p3_opt, rel=1e-6)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_strong_duality_across_instances(self, seed):
        instance = make_tiny_instance(seed=seed)
        _, p3_opt = solve_p3(instance)
        assert solve_dual(instance) == pytest.approx(p3_opt, rel=1e-6)


class TestCertificate:
    def test_chain_holds_for_online_solution(self, instance):
        schedule = OnlineRegularizedAllocator().run(instance)
        certificate = duality_certificate(instance, schedule)
        assert certificate.chain_holds
        assert certificate.p1 >= certificate.p3 >= certificate.dual - 1e-6
        assert abs(certificate.lp_duality_gap) < 1e-5 * max(1.0, certificate.p3)

    def test_chain_holds_for_greedy(self, instance):
        schedule = OnlineGreedy().run(instance)
        assert duality_certificate(instance, schedule).chain_holds

    def test_chain_detects_violation(self):
        bad = DualityCertificate(p1=1.0, p3=2.0, dual=1.5, tolerance=1e-9)
        assert not bad.chain_holds

    def test_empirical_ratio_via_dual(self, instance):
        """D* lower-bounds the offline optimum, so P1(x)/D* upper-bounds
        the empirical ratio — the certificate is usable without ever
        solving the offline problem."""
        schedule = OnlineRegularizedAllocator().run(instance)
        certificate = duality_certificate(instance, schedule)
        offline = OfflineOptimal().run(instance)
        true_ratio = p1_value(schedule, instance) / p1_value(offline, instance)
        certified_ratio = certificate.p1 / certificate.dual
        assert certified_ratio >= true_ratio - 1e-6


def _stationarity_fit(subproblem, x, support_tol=1e-6, binding_tol=1e-5):
    """The least-squares multiplier fit with its system built by array ops."""
    num_clouds, num_users = x.shape
    grad = subproblem.gradient(x.ravel()).reshape(x.shape)
    binding = np.asarray(subproblem.capacities) - x.sum(axis=1) <= binding_tol
    clouds, users = np.nonzero(x > support_tol)
    theta, rho = np.zeros(num_users), np.zeros(num_clouds)
    if clouds.size:
        rows = np.zeros((clouds.size, num_users + num_clouds))
        rows[np.arange(clouds.size), users] = 1.0
        rows[np.arange(clouds.size), num_users + clouds] = np.where(
            binding[clouds], -1.0, 0.0
        )
        solution, *_ = np.linalg.lstsq(rows, grad[clouds, users], rcond=None)
        theta = np.maximum(solution[:num_users], 0.0)
        rho = np.maximum(np.where(binding, solution[num_users:], 0.0), 0.0)
    return theta, rho


class TestMultiplierFit:
    """``recover_slot_duals`` is the single-slot fit run slot by slot."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_both_fits_are_bit_identical_to_the_stationarity_system(self, seed):
        instance = make_tiny_instance(seed=seed)
        schedule = OnlineRegularizedAllocator().run(instance)
        theta, rho = recover_slot_duals(instance, schedule, eps1=1.0, eps2=1.0)
        x, x_prev = schedule.with_previous()
        assert diagnostics_recover_multipliers is recover_multipliers
        for t in range(instance.num_slots):
            sub = RegularizedSubproblem.from_instance(
                instance, t, x_prev[t], eps1=1.0, eps2=1.0
            )
            expected = _stationarity_fit(sub, x[t])
            single = recover_multipliers(sub, x[t].ravel())
            for fitted in ((theta[t], rho[t]), single):
                assert np.array_equal(fitted[0], expected[0])
                assert np.array_equal(fitted[1], expected[1])
            assert np.any(expected[0] > 0.0)

