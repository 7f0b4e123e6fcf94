"""Tests for the scenario builder."""

import numpy as np
import pytest

from repro.core.problem import CostWeights
from repro.mobility.random_walk import RandomWalkMobility
from repro.simulation.scenario import Scenario
from repro.topology.metro import rome_metro_topology
from tests.topology.generators import ring_topology


class TestScenarioBuild:
    def test_default_shape(self):
        instance = Scenario(num_users=5, num_slots=3).build(seed=1)
        assert instance.num_clouds == 15  # Rome metro default
        assert instance.num_users == 5
        assert instance.num_slots == 3

    def test_deterministic_per_seed(self):
        scenario = Scenario(num_users=4, num_slots=3)
        a = scenario.build(seed=9)
        b = scenario.build(seed=9)
        assert np.array_equal(a.workloads, b.workloads)
        assert np.array_equal(a.op_prices, b.op_prices)
        assert np.array_equal(a.attachment, b.attachment)

    def test_seeds_differ(self):
        scenario = Scenario(num_users=4, num_slots=3)
        a = scenario.build(seed=1)
        b = scenario.build(seed=2)
        assert not np.array_equal(a.op_prices, b.op_prices)

    def test_capacity_overprovisioning(self):
        instance = Scenario(num_users=8, num_slots=4, overprovision=1.25).build(seed=3)
        assert np.sum(instance.capacities) == pytest.approx(
            1.25 * instance.total_workload
        )

    def test_custom_topology_and_mobility(self):
        topo = ring_topology(5)
        scenario = Scenario(
            topology=topo,
            mobility=RandomWalkMobility(topo),
            num_users=4,
            num_slots=3,
        )
        instance = scenario.build(seed=1)
        assert instance.num_clouds == 5
        assert np.all(instance.access_delay == 0.0)  # walkers sit on stations

    def test_mobility_topology_mismatch_detected(self):
        scenario = Scenario(
            topology=ring_topology(5),
            mobility=RandomWalkMobility(rome_metro_topology()),
            num_users=3,
            num_slots=2,
        )
        with pytest.raises(ValueError, match="disagree"):
            scenario.build(seed=1)

    def test_workload_distribution_applied(self):
        uniform = Scenario(
            num_users=300, num_slots=1, workload_distribution="uniform"
        ).build(seed=5)
        power = Scenario(
            num_users=300, num_slots=1, workload_distribution="power"
        ).build(seed=5)
        # Power-law workloads are right-skewed (mean above the median);
        # uniform ones are symmetric.
        power_skew = np.mean(power.workloads) - np.median(power.workloads)
        uniform_skew = np.mean(uniform.workloads) - np.median(uniform.workloads)
        assert power_skew > uniform_skew + 0.2

    def test_with_mu(self):
        scenario = Scenario(num_users=3, num_slots=2).with_mu(7.0)
        assert scenario.weights.mu == 7.0
        instance = scenario.build(seed=1)
        assert instance.weights.mu == 7.0

    def test_with_users(self):
        scenario = Scenario(num_users=3, num_slots=2).with_users(11)
        assert scenario.build(seed=1).num_users == 11

    def test_weights_propagate(self):
        scenario = Scenario(
            num_users=3, num_slots=2, weights=CostWeights(static=2.0, dynamic=0.5)
        )
        assert scenario.build(seed=1).weights.static == 2.0

    def test_delay_price_scales_inter_cloud_delay(self):
        cheap = Scenario(num_users=3, num_slots=2, delay_price_per_km=1.0).build(seed=1)
        dear = Scenario(num_users=3, num_slots=2, delay_price_per_km=2.0).build(seed=1)
        assert np.allclose(dear.inter_cloud_delay, 2.0 * cheap.inter_cloud_delay)
