"""Tests for dual-price extraction."""

import numpy as np
import pytest

from repro.analysis.prices import DualPriceSeries, extract_dual_prices
from repro.core.regularization import OnlineRegularizedAllocator
from repro.simulation.scenario import Scenario


@pytest.fixture(scope="module")
def solved_allocator():
    instance = Scenario(num_users=6, num_slots=4).build(seed=13)
    algorithm = OnlineRegularizedAllocator()
    algorithm.run(instance)
    return algorithm, instance


class TestExtraction:
    def test_shapes(self, solved_allocator):
        algorithm, instance = solved_allocator
        series = extract_dual_prices(algorithm)
        assert series.user_prices.shape == (instance.num_slots, instance.num_users)
        assert series.congestion_rents.shape == (
            instance.num_slots,
            instance.num_clouds,
        )
        assert series.num_slots == instance.num_slots

    def test_prices_nonnegative(self, solved_allocator):
        algorithm, _ = solved_allocator
        series = extract_dual_prices(algorithm)
        assert np.all(series.user_prices >= 0)
        assert np.all(series.congestion_rents >= 0)

    def test_user_prices_positive_where_demand_binds(self, solved_allocator):
        # Demand constraints bind at the optimum (prices are positive), so
        # every user carries a positive marginal cost in every slot.
        algorithm, _ = solved_allocator
        series = extract_dual_prices(algorithm)
        assert series.user_prices.min() > 1e-6

    def test_congestion_only_where_capacity_binds(self, solved_allocator):
        algorithm, instance = solved_allocator
        series = extract_dual_prices(algorithm)
        schedule = algorithm.run(instance)  # rerun to obtain the schedule
        loads = schedule.cloud_totals()
        capacities = np.asarray(instance.capacities)
        # Wherever the rent is material, the cloud is (nearly) full.
        material = series.congestion_rents > 0.05
        utilization = loads / capacities[None, :]
        assert np.all(utilization[material] > 0.95)

    def test_unrun_allocator_rejected(self):
        with pytest.raises(ValueError, match="no recorded solves"):
            extract_dual_prices(OnlineRegularizedAllocator())


class TestSeriesHelpers:
    def make_series(self):
        user_prices = np.array([[1.0, 2.0], [3.0, 4.0]])
        rents = np.array([[0.0, 0.5, 0.0], [0.0, 0.0, 2.0]])
        return DualPriceSeries(user_prices=user_prices, congestion_rents=rents)

    def test_mean_user_price(self):
        series = self.make_series()
        assert np.allclose(series.mean_user_price(), [2.0, 3.0])

    def test_peak_congestion(self):
        slot, cloud, rent = self.make_series().peak_congestion()
        assert (slot, cloud) == (1, 2)
        assert rent == pytest.approx(2.0)

    def test_congested_mask(self):
        mask = self.make_series().congested_clouds(threshold=0.4)
        assert mask.sum() == 2
