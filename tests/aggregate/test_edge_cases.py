"""Degenerate populations and lifecycle edges of the aggregation layer.

Covers the corners the round-trip properties cannot reach by random
sampling alone: stations with no attached users, one-user cohorts, the
single-cohort population, cohort churn as users move mid-run, schedule
dropping under aggregation, controller reset/resume, and configuration
validation.
"""

import numpy as np
import pytest

from repro.aggregate import (
    AggregatedController,
    AggregationConfig,
    BucketSpec,
    build_cohorts,
)
from repro.baselines.greedy import GreedyController
from repro.core.problem import CostWeights, MigrationPrices, ProblemInstance
from repro.core.regularization import OnlineRegularizedAllocator
from repro.simulation.observations import (
    SystemDescription,
    iter_observations,
)
from repro.simulation.spine import simulate


def small_instance(
    *,
    num_slots: int = 4,
    num_users: int = 6,
    num_clouds: int = 3,
    seed: int = 3,
    attachment: np.ndarray | None = None,
    workloads: np.ndarray | None = None,
) -> ProblemInstance:
    rng = np.random.default_rng(seed)
    if workloads is None:
        workloads = rng.uniform(0.5, 4.0, size=num_users)
    if attachment is None:
        attachment = rng.integers(0, num_clouds, size=(num_slots, num_users))
    delay = rng.uniform(0.5, 2.0, size=(num_clouds, num_clouds))
    delay = (delay + delay.T) / 2
    np.fill_diagonal(delay, 0.0)
    return ProblemInstance(
        workloads=np.asarray(workloads, dtype=float),
        capacities=np.full(num_clouds, float(np.sum(workloads))),
        op_prices=0.5 + rng.uniform(0.0, 1.0, size=(num_slots, num_clouds)),
        reconfig_prices=rng.uniform(0.5, 1.5, size=num_clouds),
        migration_prices=MigrationPrices(
            out=rng.uniform(0.2, 0.8, size=num_clouds),
            into=rng.uniform(0.2, 0.8, size=num_clouds),
        ),
        inter_cloud_delay=delay,
        attachment=np.asarray(attachment),
        access_delay=rng.uniform(0.0, 0.5, size=(num_slots, num_users)),
        weights=CostWeights(),
    )


def run_aggregated(instance, config, **controller_kwargs):
    system = SystemDescription.from_instance(instance)
    controller = AggregatedController(
        system=system, config=config, **controller_kwargs
    )
    result = simulate(controller, iter_observations(instance), system)
    return result, controller


def assert_feasible(result):
    assert result.feasibility.demand_violation <= 1e-8
    assert result.feasibility.capacity_violation <= 1e-8
    assert result.feasibility.negativity_violation == 0.0


def test_empty_stations_contribute_no_cohorts():
    """All users piled on one of several stations: the rest stay empty."""
    num_slots, num_users = 3, 8
    attachment = np.zeros((num_slots, num_users), dtype=int)
    instance = small_instance(
        num_slots=num_slots, num_users=num_users, attachment=attachment
    )
    result, controller = run_aggregated(
        instance, AggregationConfig(lambda_buckets=4)
    )
    assert_feasible(result)
    for report in controller.last_reports:
        # <= buckets cohorts despite 3 stations existing in the system.
        assert 1 <= report.cohorts <= 4


def test_single_user_per_bucket_matches_direct():
    """Distinct workloads + exact buckets: G == J, aggregation is a no-op."""
    workloads = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    instance = small_instance(num_users=5, workloads=workloads, seed=9)
    system = SystemDescription.from_instance(instance)
    direct = OnlineRegularizedAllocator(tol=1e-10).as_controller(system)
    res_direct = simulate(direct, iter_observations(instance), system)
    result, controller = run_aggregated(
        instance,
        AggregationConfig(lambda_buckets=None),
        algorithm=OnlineRegularizedAllocator(tol=1e-10),
    )
    assert_feasible(result)
    for report in controller.last_reports:
        assert report.spread == 0.0
    # Every cohort is a singleton only when no two users share a station
    # and a workload — here workloads are distinct but stations collide,
    # so just require the trajectory cost to match the direct solve.
    scale = max(1.0, abs(res_direct.total_cost))
    assert abs(result.total_cost - res_direct.total_cost) <= 1e-6 * scale


def test_all_users_in_one_cohort():
    """Identical workloads, one station: the reduced P2 has one column."""
    num_slots, num_users = 3, 7
    instance = small_instance(
        num_slots=num_slots,
        num_users=num_users,
        attachment=np.full((num_slots, num_users), 2, dtype=int),
        workloads=np.full(num_users, 1.5),
    )
    result, controller = run_aggregated(
        instance, AggregationConfig(lambda_buckets=8)
    )
    assert_feasible(result)
    for report in controller.last_reports:
        assert report.cohorts == 1
        assert report.users == num_users
        assert report.spread == 0.0
        assert report.error_bound == 0.0


def test_mid_run_cohort_churn_stays_feasible_and_reported():
    """Users hop stations every slot; membership is rebuilt per slot."""
    instance = small_instance(num_slots=6, num_users=10, seed=21)
    result, controller = run_aggregated(
        instance, AggregationConfig(lambda_buckets=4)
    )
    assert_feasible(result)
    assert len(controller.last_reports) == 6
    # Churn varies the cohort structure across slots on this seed.
    assert len({r.cohorts for r in controller.last_reports}) > 1
    for report in controller.last_reports:
        assert report.disagg_error is not None
        assert np.isfinite(report.disagg_error)


def test_keep_schedule_false_under_aggregation():
    instance = small_instance()
    system = SystemDescription.from_instance(instance)
    config = AggregationConfig(lambda_buckets=4)
    kept = simulate(
        AggregatedController(system=system, config=config),
        iter_observations(instance),
        system,
    )
    dropped = simulate(
        AggregatedController(system=system, config=config),
        iter_observations(instance),
        system,
        keep_schedule=False,
    )
    assert kept.schedule is not None
    assert dropped.schedule is None
    assert dropped.total_cost == pytest.approx(kept.total_cost, rel=1e-12)


def test_simulate_aggregation_rejects_controllers_without_support():
    instance = small_instance()
    system = SystemDescription.from_instance(instance)
    with pytest.raises(ValueError, match="aggregation"):
        simulate(
            GreedyController(system=system),
            iter_observations(instance),
            system,
            aggregation=AggregationConfig(),
        )


def test_simulate_aggregation_wraps_regularized_controller():
    instance = small_instance()
    system = SystemDescription.from_instance(instance)
    controller = OnlineRegularizedAllocator().as_controller(system)
    reference, _ = run_aggregated(instance, AggregationConfig(lambda_buckets=4))
    wrapped = simulate(
        controller,
        iter_observations(instance),
        system,
        aggregation=AggregationConfig(lambda_buckets=4),
    )
    assert wrapped.total_cost == pytest.approx(
        reference.total_cost, rel=1e-12
    )


def test_reset_reproduces_a_fresh_run():
    instance = small_instance()
    system = SystemDescription.from_instance(instance)
    controller = AggregatedController(
        system=system, config=AggregationConfig(lambda_buckets=4)
    )
    first = simulate(controller, iter_observations(instance), system)
    second = simulate(controller, iter_observations(instance), system)
    assert second.total_cost == pytest.approx(first.total_cost, rel=1e-12)
    assert len(controller.last_reports) == instance.num_slots


def test_get_state_set_state_resume_matches_uninterrupted_run():
    instance = small_instance(num_slots=6)
    system = SystemDescription.from_instance(instance)
    config = AggregationConfig(lambda_buckets=4)
    continuous = AggregatedController(system=system, config=config)
    continuous.reset()
    observations = list(iter_observations(instance))
    full = [continuous.observe(obs) for obs in observations]

    first = AggregatedController(system=system, config=config)
    first.reset()
    for obs in observations[:3]:
        first.observe(obs)
    snapshot = first.get_state()

    second = AggregatedController(system=system, config=config)
    second.reset()
    second.set_state(snapshot)
    resumed = [second.observe(obs) for obs in observations[3:]]
    for expected, got in zip(full[3:], resumed):
        np.testing.assert_allclose(got, expected, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"lambda_buckets": -1},
        {"shards": 0},
        {"workers": -2},
        {"workers": 2},
        {"workers": None},
        {"workers": 0},
    ],
)
def test_aggregation_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        AggregationConfig(**kwargs)


def test_bucket_spec_corner_cases():
    # All-equal workloads degenerate to a single bucket.
    spec = BucketSpec.from_workloads(np.full(5, 2.0), 8)
    assert spec.num_buckets == 1
    assert np.array_equal(spec.assign(np.full(5, 2.0)), np.zeros(5, dtype=int))
    # num_buckets=1 puts everyone together regardless of spread.
    spec = BucketSpec.from_workloads(np.array([0.5, 7.0]), 1)
    assert spec.num_buckets == 1
    assert np.array_equal(spec.assign(np.array([0.5, 7.0])), [0, 0])
    # Out-of-range workloads clip into the edge buckets.
    spec = BucketSpec.from_workloads(np.array([1.0, 2.0, 4.0]), 2)
    assert spec.assign(np.array([0.01]))[0] == 0
    assert spec.assign(np.array([100.0]))[0] == spec.num_buckets - 1
    # Empty or nonpositive workloads are rejected.
    with pytest.raises(ValueError):
        BucketSpec.from_workloads(np.array([]), 4)
    with pytest.raises(ValueError):
        BucketSpec.from_workloads(np.array([1.0, -0.5]), 4)


def test_build_cohorts_rejects_misaligned_inputs():
    spec = BucketSpec.from_workloads(np.array([1.0, 2.0]), 2)
    with pytest.raises(ValueError, match="index-aligned"):
        build_cohorts(np.array([0, 1, 0]), np.array([1.0, 2.0]), spec)


def test_dense_and_sparse_key_paths_agree():
    """Huge station ids force the np.unique fallback; results must match."""
    rng = np.random.default_rng(7)
    lam = rng.uniform(0.5, 5.0, size=40)
    att = rng.integers(0, 4, size=40)
    spec = BucketSpec.from_workloads(lam, 4)
    dense = build_cohorts(att, lam, spec)
    sparse = build_cohorts(att + (1 << 40), lam, spec)
    assert np.array_equal(dense.cohort_of, sparse.cohort_of)
    assert np.array_equal(dense.sizes, sparse.sizes)
    np.testing.assert_allclose(dense.workloads, sparse.workloads)
    np.testing.assert_allclose(dense.member_share, sparse.member_share)
    assert np.array_equal(
        np.asarray(sparse.stations) - (1 << 40), np.asarray(dense.stations)
    )
