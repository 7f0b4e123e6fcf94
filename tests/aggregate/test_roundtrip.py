"""Property tests: aggregation -> disaggregation is a faithful round trip.

Hypothesis draws random user populations (workload distributions, bucket
counts, attachment patterns); the cohort map must preserve total demand
exactly, keep every disaggregated allocation feasible, and reduce to the
per-user solve bit-for-bit in the exactness regime (workload-uniform
cohorts moving together).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregate import AggregatedController, AggregationConfig, BucketSpec, build_cohorts
from repro.core.problem import CostWeights, MigrationPrices, ProblemInstance
from repro.core.regularization import OnlineRegularizedAllocator
from repro.simulation.observations import SystemDescription, iter_observations
from repro.simulation.spine import simulate


def random_population(seed: int, num_users: int, num_stations: int):
    """(attachment, workloads) for one slot's user population."""
    rng = np.random.default_rng(seed)
    workloads = rng.uniform(0.2, 8.0, size=num_users)
    attachment = rng.integers(0, num_stations, size=num_users)
    return attachment, workloads


population_args = dict(
    seed=st.integers(min_value=0, max_value=10_000),
    num_users=st.integers(min_value=1, max_value=40),
    num_stations=st.integers(min_value=1, max_value=6),
    buckets=st.sampled_from([None, 1, 2, 8]),
)


@given(**population_args)
@settings(max_examples=60, deadline=None)
def test_cohort_map_partitions_users(seed, num_users, num_stations, buckets):
    attachment, workloads = random_population(seed, num_users, num_stations)
    spec = BucketSpec.from_workloads(workloads, buckets)
    cohorts = build_cohorts(attachment, workloads, spec)
    assert cohorts.num_users == num_users
    assert 1 <= cohorts.num_cohorts <= num_users
    # Workload mass is partitioned exactly (same-order summation per cohort).
    assert np.isclose(cohorts.workloads.sum(), workloads.sum(), rtol=1e-12)
    assert int(cohorts.sizes.sum()) == num_users
    # Every member's share weights sum to one within its cohort.
    share_sums = np.bincount(
        cohorts.cohort_of, weights=cohorts.member_share,
        minlength=cohorts.num_cohorts,
    )
    assert np.allclose(share_sums, 1.0, atol=1e-12)
    # Cohort-mates share a station.
    assert np.array_equal(
        np.asarray(cohorts.stations)[cohorts.cohort_of], attachment
    )


@given(**population_args)
@settings(max_examples=60, deadline=None)
def test_disaggregation_preserves_total_demand_exactly(
    seed, num_users, num_stations, buckets
):
    attachment, workloads = random_population(seed, num_users, num_stations)
    spec = BucketSpec.from_workloads(workloads, buckets)
    cohorts = build_cohorts(attachment, workloads, spec)
    num_clouds = num_stations
    rng = np.random.default_rng(seed + 1)
    # A feasible-looking cohort allocation: columns sum to Lambda_g.
    y = rng.uniform(0.0, 1.0, size=(num_clouds, cohorts.num_cohorts))
    y = y / y.sum(axis=0, keepdims=True) * cohorts.workloads[None, :]
    x = cohorts.disaggregate(y)
    # Per-user demand satisfied (up to float rounding of the split).
    assert np.allclose(x.sum(axis=0), workloads, rtol=1e-12, atol=1e-12)
    # Cloud totals preserved — capacity feasibility transfers structurally.
    assert np.allclose(x.sum(axis=1), y.sum(axis=1), rtol=1e-12, atol=1e-12)
    assert (x >= 0).all()


@given(**population_args)
@settings(max_examples=60, deadline=None)
def test_aggregate_disaggregate_is_identity_on_cohort_columns(
    seed, num_users, num_stations, buckets
):
    attachment, workloads = random_population(seed, num_users, num_stations)
    spec = BucketSpec.from_workloads(workloads, buckets)
    cohorts = build_cohorts(attachment, workloads, spec)
    rng = np.random.default_rng(seed + 2)
    y = rng.uniform(0.0, 3.0, size=(4, cohorts.num_cohorts))
    back = cohorts.aggregate(cohorts.disaggregate(y))
    assert np.allclose(back, y, rtol=1e-12, atol=1e-12)
    # And aggregation alone preserves per-cloud mass for any allocation.
    x = rng.uniform(0.0, 2.0, size=(4, num_users))
    assert np.allclose(
        cohorts.aggregate(x).sum(axis=1), x.sum(axis=1), rtol=1e-12
    )


@given(**population_args)
@settings(max_examples=60, deadline=None)
def test_spread_is_zero_iff_cohorts_are_workload_uniform(
    seed, num_users, num_stations, buckets
):
    attachment, workloads = random_population(seed, num_users, num_stations)
    spec = BucketSpec.from_workloads(workloads, buckets)
    cohorts = build_cohorts(attachment, workloads, spec)
    spread = cohorts.spread
    assert spread >= 0.0
    hi = np.zeros(cohorts.num_cohorts)
    lo = np.full(cohorts.num_cohorts, np.inf)
    np.maximum.at(hi, cohorts.cohort_of, workloads)
    np.minimum.at(lo, cohorts.cohort_of, workloads)
    uniform = bool(np.all(hi == lo))
    assert (spread == 0.0) == uniform
    if buckets is None:
        # Exact-value buckets are the zero-spread mode by construction.
        assert spread == 0.0


def make_cohorted_instance(
    *, num_slots: int = 4, seed: int = 11, groups: int = 2, group_size: int = 3
) -> ProblemInstance:
    """Users form `groups` workload-identical groups that move *together*.

    Every member of a group shares its workload and its whole attachment
    trajectory, so under exact buckets the groups are cohorts in every
    slot and the equal-split invariant is preserved across slots — the
    regime where aggregation is provably exact.
    """
    rng = np.random.default_rng(seed)
    num_clouds = 3
    num_users = groups * group_size
    workloads = np.repeat(np.linspace(1.0, 3.0, groups), group_size)
    group_walk = rng.integers(0, num_clouds, size=(num_slots, groups))
    attachment = np.repeat(group_walk, group_size, axis=1)
    delay = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.5], [2.0, 1.5, 0.0]])
    return ProblemInstance(
        workloads=workloads,
        capacities=np.full(num_clouds, workloads.sum()),
        op_prices=0.5 + rng.uniform(0.0, 1.0, size=(num_slots, num_clouds)),
        reconfig_prices=np.array([0.8, 1.0, 1.2]),
        migration_prices=MigrationPrices(
            out=np.array([0.4, 0.5, 0.6]), into=np.array([0.6, 0.5, 0.4])
        ),
        inter_cloud_delay=delay,
        attachment=attachment,
        access_delay=rng.uniform(0.0, 0.5, size=(num_slots, num_users)),
        weights=CostWeights(),
    )


@pytest.mark.parametrize("groups,group_size", [(1, 4), (2, 3), (3, 2)])
def test_identical_users_in_a_bucket_match_direct_cost_to_1e9(groups, group_size):
    """Workload-identical cohort-mates: aggregated cost == direct to 1e-9.

    Exact buckets, groups moving together, tight solver tolerance — the
    reduced P2 is mathematically the same program, so the realized P0
    trajectory cost must agree to 1e-9 relative.
    """
    instance = make_cohorted_instance(groups=groups, group_size=group_size)
    system = SystemDescription.from_instance(instance)
    direct = OnlineRegularizedAllocator(tol=1e-10).as_controller(system)
    config = AggregationConfig(lambda_buckets=None)
    aggregated = AggregatedController(
        system=system,
        algorithm=OnlineRegularizedAllocator(tol=1e-10),
        config=config,
    )
    res_direct = simulate(direct, iter_observations(instance), system)
    res_agg = simulate(aggregated, iter_observations(instance), system)
    scale = max(1.0, abs(res_direct.total_cost))
    assert abs(res_agg.total_cost - res_direct.total_cost) <= 1e-9 * scale
    # The per-slot modeling gap recorded by the controller is ~solver-tol.
    for report in aggregated.last_reports:
        assert report.spread == 0.0
        assert report.error_bound == 0.0
        assert report.disagg_error is not None and report.disagg_error < 1e-9
    # Feasibility of the disaggregated per-user trajectory.
    assert res_agg.feasibility.demand_violation <= 1e-8
    assert res_agg.feasibility.capacity_violation <= 1e-8
    assert res_agg.feasibility.negativity_violation == 0.0


@given(
    seed=st.integers(min_value=0, max_value=500),
    buckets=st.sampled_from([None, 4, 8]),
)
@settings(max_examples=10, deadline=None)
def test_aggregated_allocations_always_feasible(seed, buckets):
    """Whatever the buckets, disaggregated slots satisfy every constraint."""
    instance = make_cohorted_instance(seed=seed, groups=3, group_size=2)
    system = SystemDescription.from_instance(instance)
    controller = AggregatedController(
        system=system, config=AggregationConfig(lambda_buckets=buckets)
    )
    result = simulate(controller, iter_observations(instance), system)
    assert result.feasibility.demand_violation <= 1e-8
    assert result.feasibility.capacity_violation <= 1e-8
    assert result.feasibility.negativity_violation == 0.0
