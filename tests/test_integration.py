"""End-to-end integration tests: the theorems, on real scenario draws.

These tests cross multiple subsystems at once (scenario -> instance ->
algorithms -> costs -> analysis) and encode the paper's headline guarantees
as executable checks:

* Theorem 1 — the online trajectory is feasible;
* Theorem 2 — the empirical ratio respects the parameterized bound;
* Lemma 1   — P1 and P0 stay within the transformation constant;
* sanity    — offline-opt lower-bounds every algorithm, greedy equals
  lookahead-1, streaming equals batch.
"""

import numpy as np
import pytest

from repro import (
    CostWeights,
    OfflineOptimal,
    OnlineGreedy,
    OnlineRegularizedAllocator,
    OperOpt,
    PerfOpt,
    Scenario,
    StatOpt,
    compare_algorithms,
    competitive_ratio_bound,
    total_cost,
)
from repro.baselines import RecedingHorizon
from repro.mobility import RandomWalkMobility
from repro.topology import rome_metro_topology
from tests.core.lemma1 import lemma1_gap


@pytest.fixture(scope="module")
def instances():
    """A few structurally different seeded instances."""
    topo = rome_metro_topology()
    return {
        "taxi": Scenario(num_users=8, num_slots=5).build(seed=21),
        "walk": Scenario(
            topology=topo,
            mobility=RandomWalkMobility(topo),
            num_users=8,
            num_slots=5,
        ).build(seed=22),
        "heavy-dynamic": Scenario(
            num_users=6, num_slots=5, weights=CostWeights.from_mu(5.0)
        ).build(seed=23),
    }


ALL_ALGORITHMS = [
    OfflineOptimal(),
    OnlineGreedy(),
    OnlineRegularizedAllocator(),
    PerfOpt(),
    OperOpt(),
    StatOpt(),
    RecedingHorizon(window=2),
]


class TestOfflineDominance:
    @pytest.mark.parametrize("key", ["taxi", "walk", "heavy-dynamic"])
    def test_offline_lower_bounds_everything(self, instances, key):
        instance = instances[key]
        offline_cost = total_cost(OfflineOptimal().run(instance), instance)
        for algorithm in ALL_ALGORITHMS[1:]:
            cost = total_cost(algorithm.run(instance), instance)
            assert cost >= offline_cost - 1e-6, (key, algorithm.name)


class TestTheorem1Feasibility:
    @pytest.mark.parametrize("seed", range(6))
    def test_online_trajectory_feasible_across_seeds(self, seed):
        instance = Scenario(num_users=6, num_slots=4).build(seed=100 + seed)
        schedule = OnlineRegularizedAllocator().run(instance)
        schedule.require_feasible(instance, tol=1e-5)

    @pytest.mark.parametrize("mu", [0.01, 1.0, 100.0])
    def test_feasible_across_weights(self, mu):
        instance = Scenario(
            num_users=6, num_slots=4, weights=CostWeights.from_mu(mu)
        ).build(seed=3)
        schedule = OnlineRegularizedAllocator().run(instance)
        schedule.require_feasible(instance, tol=1e-5)

    @pytest.mark.parametrize("eps", [1e-3, 1.0, 1e3])
    def test_feasible_across_eps(self, eps):
        instance = Scenario(num_users=6, num_slots=4).build(seed=4)
        schedule = OnlineRegularizedAllocator(eps1=eps, eps2=eps).run(instance)
        schedule.require_feasible(instance, tol=1e-5)


class TestTheorem2Bound:
    @pytest.mark.parametrize("key", ["taxi", "walk", "heavy-dynamic"])
    def test_empirical_ratio_below_parameterized_bound(self, instances, key):
        instance = instances[key]
        comparison = compare_algorithms(
            [OfflineOptimal(), OnlineRegularizedAllocator()], instance
        )
        empirical = comparison.ratio("online-approx")
        bound = competitive_ratio_bound(instance, 1.0, 1.0)
        # The bound is loose (gamma scales with C ln C), but it is the
        # paper's guarantee — the empirical ratio must sit far below it.
        assert empirical <= bound
        assert empirical < 2.0  # and in practice near-optimal


class TestLemma1:
    @pytest.mark.parametrize("key", ["taxi", "walk", "heavy-dynamic"])
    def test_gap_nonnegative_on_algorithm_outputs(self, instances, key):
        instance = instances[key]
        for algorithm in (OnlineRegularizedAllocator(), OnlineGreedy()):
            schedule = algorithm.run(instance)
            assert lemma1_gap(schedule, instance) >= -1e-6


class TestCrossAlgorithmIdentities:
    def test_greedy_equals_lookahead_one(self, instances):
        instance = instances["taxi"]
        greedy = total_cost(OnlineGreedy().run(instance), instance)
        lookahead = total_cost(RecedingHorizon(window=1).run(instance), instance)
        assert greedy == pytest.approx(lookahead, rel=1e-6)

    def test_full_lookahead_equals_offline(self, instances):
        instance = instances["taxi"]
        offline = total_cost(OfflineOptimal().run(instance), instance)
        lookahead = total_cost(
            RecedingHorizon(window=instance.num_slots).run(instance), instance
        )
        assert offline == pytest.approx(lookahead, rel=1e-6)


class TestMobilityRobustness:
    def test_algorithm_handles_static_users(self):
        """Degenerate mobility: nobody ever moves."""
        topo = rome_metro_topology()

        class Frozen:
            def generate(self, num_users, num_slots, rng):
                from repro.mobility.base import MobilityTrace

                attachment = np.tile(
                    rng.integers(0, topo.num_sites, size=num_users), (num_slots, 1)
                )
                return MobilityTrace(
                    attachment=attachment,
                    access_delay=np.zeros_like(attachment, dtype=float),
                    num_clouds=topo.num_sites,
                )

        instance = Scenario(
            topology=topo, mobility=Frozen(), num_users=6, num_slots=4
        ).build(seed=5)
        comparison = compare_algorithms(
            [OfflineOptimal(), OnlineRegularizedAllocator(), OnlineGreedy()],
            instance,
        )
        # With static users and only price noise, everyone is near-optimal.
        assert comparison.ratio("online-approx") < 1.5

    def test_single_user(self):
        instance = Scenario(num_users=1, num_slots=4).build(seed=6)
        schedule = OnlineRegularizedAllocator().run(instance)
        schedule.require_feasible(instance, tol=1e-5)

    def test_single_slot(self):
        instance = Scenario(num_users=5, num_slots=1).build(seed=7)
        comparison = compare_algorithms(
            [OfflineOptimal(), OnlineGreedy(), OnlineRegularizedAllocator()],
            instance,
        )
        # One slot: greedy is exactly optimal.
        assert comparison.ratio("online-greedy") == pytest.approx(1.0, abs=1e-6)
