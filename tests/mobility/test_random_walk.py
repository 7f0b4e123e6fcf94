"""Tests for the random-walk mobility of Section V-D."""

import numpy as np
import pytest

from repro.mobility.random_walk import RandomWalkMobility
from repro.topology.metro import rome_metro_topology
from tests.topology.generators import ring_topology


def rng(seed=0):
    return np.random.default_rng(seed)


class TestRandomWalk:
    def test_shape_and_range(self):
        topo = rome_metro_topology()
        trace = RandomWalkMobility(topo).generate(10, 8, rng())
        assert trace.attachment.shape == (8, 10)
        assert trace.attachment.min() >= 0
        assert trace.attachment.max() < topo.num_sites

    def test_zero_access_delay(self):
        # Users sit exactly at stations: d(j, l_{j,t}) = 0.
        topo = rome_metro_topology()
        trace = RandomWalkMobility(topo).generate(5, 5, rng())
        assert np.all(trace.access_delay == 0.0)

    def test_moves_only_to_neighbors_or_stays(self):
        topo = rome_metro_topology()
        trace = RandomWalkMobility(topo).generate(20, 30, rng())
        for t in range(1, trace.num_slots):
            for j in range(trace.num_users):
                prev = int(trace.attachment[t - 1, j])
                curr = int(trace.attachment[t, j])
                assert curr == prev or curr in topo.neighbors(prev)

    def test_uniform_choice_probabilities(self):
        # On a ring every site has 2 neighbors: stay probability should be
        # ~1/3 (uniform over {stay, left, right}), the paper's rule.
        topo = ring_topology(6)
        trace = RandomWalkMobility(topo).generate(300, 40, rng())
        stays = np.mean(trace.attachment[1:] == trace.attachment[:-1])
        assert stays == pytest.approx(1.0 / 3.0, abs=0.03)

    def test_stay_bias_increases_dwell(self):
        topo = rome_metro_topology()
        uniform = RandomWalkMobility(topo).generate(100, 30, rng(1))
        lazy = RandomWalkMobility(topo, stay_bias=4.0).generate(100, 30, rng(1))
        assert lazy.switch_count() < uniform.switch_count()

    def test_negative_bias_rejected(self):
        with pytest.raises(ValueError):
            RandomWalkMobility(rome_metro_topology(), stay_bias=-0.5)

    def test_deterministic_per_seed(self):
        topo = rome_metro_topology()
        model = RandomWalkMobility(topo)
        a = model.generate(5, 10, rng(7))
        b = model.generate(5, 10, rng(7))
        assert np.array_equal(a.attachment, b.attachment)

    def test_empty_cases(self):
        topo = rome_metro_topology()
        model = RandomWalkMobility(topo)
        assert model.generate(0, 5, rng()).attachment.shape == (5, 0)
        assert model.generate(5, 0, rng()).attachment.shape == (0, 5)

    def test_negative_counts_rejected(self):
        model = RandomWalkMobility(rome_metro_topology())
        with pytest.raises(ValueError):
            model.generate(-1, 5, rng())
        with pytest.raises(ValueError):
            model.generate(5, -1, rng())

    def test_all_stations_reachable_long_run(self):
        # The metro graph is connected, so a long walk visits everything.
        topo = rome_metro_topology()
        trace = RandomWalkMobility(topo).generate(30, 200, rng(3))
        assert set(np.unique(trace.attachment)) == set(range(topo.num_sites))
