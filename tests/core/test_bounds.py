"""Tests for the theoretical competitive-ratio machinery (Theorem 2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bounds import (
    competitive_ratio_bound,
    eta,
    gamma,
    suggest_epsilon,
    tau,
)

eps_strategy = st.floats(min_value=1e-4, max_value=1e4)


class TestEtaTau:
    def test_eta_formula(self):
        capacities = np.array([10.0, 100.0])
        result = eta(capacities, eps1=2.0)
        assert np.allclose(result, np.log1p(capacities / 2.0))

    def test_tau_formula(self):
        workloads = np.array([1.0, 5.0])
        result = tau(workloads, eps2=0.5)
        assert np.allclose(result, np.log1p(workloads / 0.5))

    def test_positive_eps_required(self):
        with pytest.raises(ValueError):
            eta(np.array([1.0]), 0.0)
        with pytest.raises(ValueError):
            tau(np.array([1.0]), -1.0)


class TestGamma:
    def test_formula_single_cloud(self):
        c, e1, e2 = 10.0, 1.0, 2.0
        expected = max(
            (c + e1) * np.log1p(c / e1),
            (c + e2) * np.log1p(c / e2),
        )
        assert gamma(np.array([c]), e1, e2) == pytest.approx(expected)

    def test_max_over_clouds(self):
        capacities = np.array([1.0, 50.0])
        g = gamma(capacities, 1.0, 1.0)
        assert g == pytest.approx((51.0) * np.log1p(50.0))

    @given(eps=eps_strategy)
    @settings(max_examples=40, deadline=None)
    def test_gamma_positive(self, eps):
        assert gamma(np.array([3.0, 7.0]), eps, eps) > 0

    @given(
        eps_small=eps_strategy,
        factor=st.floats(min_value=1.001, max_value=100.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_monotone_decreasing_in_eps(self, eps_small, factor):
        """The Remark after Theorem 2: r decreases in eps1 = eps2."""
        capacities = np.array([2.0, 9.0, 30.0])
        g_small = gamma(capacities, eps_small, eps_small)
        g_large = gamma(capacities, eps_small * factor, eps_small * factor)
        assert g_large <= g_small + 1e-9


class TestRatioBound:
    def test_formula(self, tiny_instance):
        r = competitive_ratio_bound(tiny_instance, 1.0, 1.0)
        g = gamma(np.asarray(tiny_instance.capacities), 1.0, 1.0)
        assert r == pytest.approx(1.0 + g * tiny_instance.num_clouds)

    def test_always_above_one(self, tiny_instance):
        assert competitive_ratio_bound(tiny_instance, 10.0, 10.0) > 1.0

    def test_curve_monotone(self, tiny_instance):
        eps_values = np.logspace(-3, 3, 13)
        curve = [competitive_ratio_bound(tiny_instance, e, e) for e in eps_values]
        assert np.all(np.diff(curve) <= 1e-9)


class TestSuggestEpsilon:
    def test_positive(self, tiny_instance):
        assert suggest_epsilon(tiny_instance) > 0

    def test_scales_with_fraction(self, tiny_instance):
        small = suggest_epsilon(tiny_instance, fraction=0.01)
        large = suggest_epsilon(tiny_instance, fraction=0.1)
        assert large == pytest.approx(10 * small)

    def test_invalid_fraction(self, tiny_instance):
        with pytest.raises(ValueError):
            suggest_epsilon(tiny_instance, fraction=0.0)
