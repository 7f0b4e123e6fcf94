"""Tests for the adversarial instance families."""

import numpy as np
import pytest

from repro.baselines import OfflineOptimal, OnlineGreedy
from repro.core.costs import total_cost
from repro.experiments.adversarial import (
    oscillating_price_instance,
    run_threshold_sweep,
)
from tests.experiments.adversarial import ping_pong_mobility_instance


class TestOscillatingPrices:
    def test_prices_swap(self):
        instance = oscillating_price_instance(num_slots=4, amplitude=1.0, period=1)
        prices = np.asarray(instance.op_prices)
        assert np.allclose(prices[0], [1.0, 2.0])
        assert np.allclose(prices[1], [2.0, 1.0])
        assert np.allclose(prices[2], [1.0, 2.0])

    def test_period_respected(self):
        instance = oscillating_price_instance(num_slots=6, amplitude=1.0, period=3)
        prices = np.asarray(instance.op_prices)
        assert np.allclose(prices[0], prices[2])
        assert not np.allclose(prices[2], prices[3])

    def test_zero_amplitude_is_constant(self):
        instance = oscillating_price_instance(num_slots=5, amplitude=0.0)
        assert np.allclose(instance.op_prices, instance.op_prices[0])

    def test_validation(self):
        with pytest.raises(ValueError):
            oscillating_price_instance(num_slots=0)
        with pytest.raises(ValueError):
            oscillating_price_instance(period=0)
        with pytest.raises(ValueError):
            oscillating_price_instance(amplitude=-1.0)

    def test_deterministic(self):
        a = oscillating_price_instance()
        b = oscillating_price_instance()
        assert np.array_equal(a.op_prices, b.op_prices)


class TestPingPongMobility:
    def test_attachment_bounces(self):
        instance = ping_pong_mobility_instance(num_slots=6, dwell=1)
        assert list(np.asarray(instance.attachment)[:, 0]) == [0, 1, 0, 1, 0, 1]

    def test_dwell(self):
        instance = ping_pong_mobility_instance(num_slots=8, dwell=2)
        assert list(np.asarray(instance.attachment)[:, 0]) == [0, 0, 1, 1, 0, 0, 1, 1]

    def test_validation(self):
        with pytest.raises(ValueError):
            ping_pong_mobility_instance(num_slots=0)
        with pytest.raises(ValueError):
            ping_pong_mobility_instance(dwell=0)

    def test_fast_ping_pong_punishes_chasing(self):
        # delay slightly above moving cost, dwell 1: parking is optimal and
        # the offline optimum never pays the bounce.
        instance = ping_pong_mobility_instance(
            num_slots=12, delay_cost=2.1, dwell=1
        )
        offline = OfflineOptimal().run(instance)
        greedy = OnlineGreedy().run(instance)
        assert total_cost(greedy, instance) > total_cost(offline, instance)
        # The offline optimum essentially parks (at most one mid-horizon
        # move to balance the alternation); greedy chases every bounce.
        offline_churn = np.abs(np.diff(offline.x, axis=0)).sum()
        greedy_churn = np.abs(np.diff(greedy.x, axis=0)).sum()
        assert offline_churn <= 2.0 + 1e-6
        assert greedy_churn > 4 * offline_churn


class TestThresholdSweep:
    @pytest.fixture(scope="class")
    def sweep(self):
        return run_threshold_sweep(amplitudes=(1.0, 3.0, 5.0), num_slots=12)

    def test_structure(self, sweep):
        assert set(sweep) == {1.0, 3.0, 5.0}
        for ratios in sweep.values():
            assert set(ratios) == {"online-greedy", "online-approx"}
            for value in ratios.values():
                assert value >= 1.0 - 1e-9

    def test_greedy_optimal_outside_trap(self, sweep):
        # Below the chase threshold (A=1) and far above the park threshold
        # (A=5), greedy's myopic rule happens to be the right call.
        assert sweep[1.0]["online-greedy"] == pytest.approx(1.0, abs=1e-6)
        assert sweep[5.0]["online-greedy"] == pytest.approx(1.0, abs=0.02)

    def test_greedy_suffers_inside_trap(self, sweep):
        # A=3 sits in (2, 4): greedy chases a flip-flopping price at a loss.
        assert sweep[3.0]["online-greedy"] > 1.1
        # The regularized algorithm does better there.
        assert sweep[3.0]["online-approx"] < sweep[3.0]["online-greedy"]
