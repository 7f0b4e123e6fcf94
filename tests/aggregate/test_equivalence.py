"""Equivalence and epsilon-bound acceptance at paper-shaped scales.

Two layers of guarantee, both pinned here:

* the *a-priori* bound — the aggregated trajectory cost stays within
  ``(1 + epsilon)`` of the direct per-user cost, with ``epsilon`` computed
  from instance parameters only (:func:`aggregation_error_bound`);
* the *realized* gap — far tighter than epsilon in practice, pinned for
  the fig2 (taxi) and fig5 (random-walk) scenarios so a regression in the
  reduction shows up as a failed pin, not a silently looser bound.

Sharding contracts: worker count never changes the solution (bit-for-bit),
``shards=1`` is exactly the unsharded solve, and shard count perturbs the
decision only boundedly.
"""

import numpy as np
import pytest

from repro.aggregate import (
    AggregatedController,
    AggregationConfig,
    build_cohorts,
    BucketSpec,
    reduced_subproblem,
    solve_sharded,
)
from repro.core.regularization import OnlineRegularizedAllocator
from repro.experiments.fig2 import fig2_scenario
from repro.experiments.settings import ExperimentScale
from repro.mobility.random_walk import RandomWalkMobility
from repro.simulation.observations import SystemDescription, iter_observations
from repro.simulation.scenario import Scenario
from repro.simulation.spine import simulate
from repro.solvers import InteriorPointBackend
from repro.topology.metro import rome_metro_topology

#: Realized-cost pins (aggregated / direct) for the paper scenarios at the
#: scale below. Observed: fig2 ~1.009, fig5 ~1.025 with 8 buckets; the
#: pins leave a small margin for solver/platform noise but would catch any
#: real modeling regression.
FIG2_PIN = 1.05
FIG5_PIN = 1.08
EXACT_BUCKET_PIN = 1.005

SCALE = ExperimentScale(num_users=40, num_slots=10)


def _run_pair(instance, config: AggregationConfig):
    """(direct result, aggregated result, aggregated controller)."""
    system = SystemDescription.from_instance(instance)
    direct = OnlineRegularizedAllocator().as_controller(system)
    aggregated = AggregatedController(system=system, config=config)
    res_direct = simulate(direct, iter_observations(instance), system)
    res_agg = simulate(aggregated, iter_observations(instance), system)
    return res_direct, res_agg, aggregated


def fig5_instance(seed: int = 2017):
    topology = rome_metro_topology()
    return Scenario(
        topology=topology,
        mobility=RandomWalkMobility(topology),
        num_users=SCALE.num_users,
        num_slots=SCALE.num_slots,
        workload_distribution="power",
    ).build(seed=seed)


@pytest.mark.parametrize(
    "build,pin",
    [
        (lambda: fig2_scenario(SCALE).build(seed=SCALE.seed), FIG2_PIN),
        (fig5_instance, FIG5_PIN),
    ],
    ids=["fig2-taxi", "fig5-random-walk"],
)
def test_epsilon_bound_and_pin_on_paper_scenarios(build, pin):
    instance = build()
    res_direct, res_agg, controller = _run_pair(
        instance, AggregationConfig(lambda_buckets=8)
    )
    ratio = res_agg.total_cost / res_direct.total_cost
    # The formal acceptance: within 1 + epsilon, epsilon from instance
    # parameters only (worst slot's bound over the run).
    epsilon = max(r.error_bound for r in controller.last_reports)
    assert ratio <= 1.0 + epsilon
    # The realized pin: what the reduction actually achieves.
    assert ratio <= pin
    # The reduction must actually reduce on heterogeneous populations.
    assert all(r.cohorts < r.users for r in controller.last_reports)
    assert res_agg.feasibility.demand_violation <= 1e-8
    assert res_agg.feasibility.capacity_violation <= 1e-8


def test_exact_buckets_close_the_gap_to_churn_noise():
    """lambda_buckets=None: only cohort churn remains, and it is tiny."""
    instance = fig2_scenario(SCALE).build(seed=SCALE.seed)
    res_direct, res_agg, controller = _run_pair(
        instance, AggregationConfig(lambda_buckets=None)
    )
    assert all(r.spread == 0.0 for r in controller.last_reports)
    assert all(r.error_bound == 0.0 for r in controller.last_reports)
    ratio = res_agg.total_cost / res_direct.total_cost
    assert ratio <= EXACT_BUCKET_PIN


def test_error_bound_shrinks_with_bucket_resolution():
    """epsilon(bucket width) is monotone: more buckets, smaller bound."""
    instance = fig2_scenario(SCALE).build(seed=SCALE.seed)
    system = SystemDescription.from_instance(instance)
    bounds = {}
    for buckets in (4, 8, 16, None):
        controller = AggregatedController(
            system=system, config=AggregationConfig(lambda_buckets=buckets)
        )
        simulate(controller, iter_observations(instance), system)
        bounds[buckets] = max(r.error_bound for r in controller.last_reports)
    assert bounds[4] >= bounds[8] >= bounds[16] >= bounds[None] == 0.0


def _reduced_for_test(num_users: int = 30, seed: int = 5):
    """A representative reduced subproblem straight from a fig2 slot."""
    instance = fig2_scenario(
        ExperimentScale(num_users=num_users, num_slots=2)
    ).build(seed=seed)
    system = SystemDescription.from_instance(instance)
    observation = next(iter_observations(instance))
    spec = BucketSpec.from_workloads(system.workloads, 4)
    cohorts = build_cohorts(observation.attachment, system.workloads, spec)
    subproblem = reduced_subproblem(
        system,
        observation,
        cohorts,
        np.zeros((system.num_clouds, cohorts.num_cohorts)),
        eps1=1.0,
        eps2=1.0,
    )
    return subproblem


def test_one_shard_is_exactly_the_unsharded_solve():
    subproblem = _reduced_for_test()
    sharded = solve_sharded(subproblem, shards=1).x
    result = InteriorPointBackend().solve(subproblem.build_program(), tol=1e-8)
    direct = np.asarray(result.x).reshape(sharded.shape)
    assert np.array_equal(sharded, direct)


def test_shard_count_changes_the_solution_only_boundedly():
    """Shards trade optimality for parallel wall-clock — boundedly.

    Capacity slicing keeps every shard feasible with a share of the
    joint problem's headroom, but it limits how far shards can
    *concentrate* onto the cheapest clouds; measured degradation at shards=4 is
    ~20-34% on paper-shaped instances (docs/SCALING.md quantifies this
    and when the trade is worth it). The pin catches both a blow-up and
    a silent change in the slicing semantics.
    """
    instance = fig2_scenario(SCALE).build(seed=SCALE.seed)
    system = SystemDescription.from_instance(instance)
    costs = {}
    for shards in (1, 4):
        controller = AggregatedController(
            system=system,
            config=AggregationConfig(lambda_buckets=8, shards=shards),
        )
        result = simulate(controller, iter_observations(instance), system)
        assert result.feasibility.demand_violation <= 1e-8
        assert result.feasibility.capacity_violation <= 1e-8
        costs[shards] = result.total_cost
    assert costs[1] <= costs[4] <= 1.35 * costs[1]
