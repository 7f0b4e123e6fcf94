"""Factored accounting: cohort decisions cost exactly what their split costs.

Hypothesis draws small populations (J <= 40 users, I <= 5 clouds), a
bucket mode, a trajectory with random churn between slots, and random
cohort columns, then streams the :class:`FactoredAllocation` decisions
from a zero start through the spine. Four contracts:

* the factored accumulator's four costs equal
  :func:`repro.core.costs.cost_breakdown` of the materialized schedule to
  1e-9 relative, and the stepper's residuals equal the per-user ones;
* pair-aggregating the previous decision under a slot's cohorts equals
  :meth:`CohortMap.aggregate` of the dense previous allocation to 1e-12;
* a dense decision (the trivial factorization) is accounted bit for bit
  as the dense per-user formulas, written out here;
* a memory-bounded aggregated run never splits a cohort decision back to
  users: with :meth:`CohortMap.disaggregate` disabled it still finishes,
  at the same costs.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregate import AggregationConfig, BucketSpec, build_cohorts
from repro.aggregate.cohorts import CohortMap, FactoredAllocation
from repro.core.allocation import AllocationSchedule
from repro.core.costs import cost_breakdown, positive_part
from repro.core.problem import CostWeights, MigrationPrices, ProblemInstance
from repro.core.regularization import OnlineRegularizedAllocator
from repro.simulation.accounting import CostAccumulator
from repro.simulation.observations import SystemDescription, iter_observations
from repro.simulation.spine import simulate

COMPONENTS = ("operation", "service_quality", "reconfiguration", "migration")


def churned_instance(seed, num_users, num_clouds, num_slots, churn):
    """An instance whose users re-attach with probability ``churn`` per slot."""
    rng = np.random.default_rng(seed)
    attachment = np.empty((num_slots, num_users), dtype=int)
    attachment[0] = rng.integers(0, num_clouds, size=num_users)
    for t in range(1, num_slots):
        moving = rng.random(num_users) < churn
        attachment[t] = np.where(
            moving, rng.integers(0, num_clouds, size=num_users), attachment[t - 1]
        )
    delay = rng.uniform(0.5, 3.0, size=(num_clouds, num_clouds))
    delay = (delay + delay.T) / 2.0
    np.fill_diagonal(delay, 0.0)
    workloads = rng.choice([0.5, 1.0, 2.5, 4.0], size=num_users) * rng.uniform(
        0.9, 1.1, size=num_users
    )
    return ProblemInstance(
        workloads=workloads,
        capacities=np.full(num_clouds, workloads.sum()),
        op_prices=rng.uniform(0.5, 1.5, size=(num_slots, num_clouds)),
        reconfig_prices=rng.uniform(0.5, 1.5, size=num_clouds),
        migration_prices=MigrationPrices(
            out=rng.uniform(0.2, 0.8, size=num_clouds),
            into=rng.uniform(0.2, 0.8, size=num_clouds),
        ),
        inter_cloud_delay=delay,
        attachment=attachment,
        access_delay=rng.uniform(0.0, 0.5, size=(num_slots, num_users)),
        weights=CostWeights(),
    )


def factored_trajectory(instance, buckets, seed):
    """One random FactoredAllocation per slot, over that slot's cohorts."""
    rng = np.random.default_rng(seed)
    spec = BucketSpec.from_workloads(instance.workloads, buckets)
    decisions = []
    for t in range(instance.num_slots):
        cohorts = build_cohorts(instance.attachment[t], instance.workloads, spec)
        y = rng.uniform(0.0, 2.0, size=(instance.num_clouds, cohorts.num_cohorts))
        y[rng.random(y.shape) < 0.3] = 0.0
        decisions.append(FactoredAllocation(y, cohorts))
    return decisions


class Emit:
    """A controller replaying prepared decisions, one per slot."""

    name = "emit"

    def __init__(self, decisions):
        self.decisions = decisions
        self.cursor = 0

    def observe(self, observation):
        decision = self.decisions[self.cursor]
        self.cursor += 1
        return decision

    def reset(self):
        self.cursor = 0


trajectories = dict(
    seed=st.integers(min_value=0, max_value=10_000),
    num_users=st.integers(min_value=1, max_value=40),
    num_clouds=st.integers(min_value=1, max_value=5),
    num_slots=st.integers(min_value=1, max_value=5),
    churn=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
    buckets=st.sampled_from([None, 1, 3]),
)


@given(**trajectories)
@settings(max_examples=60, deadline=None)
def test_factored_costs_equal_the_batch_costs_of_the_split(
    seed, num_users, num_clouds, num_slots, churn, buckets
):
    instance = churned_instance(seed, num_users, num_clouds, num_slots, churn)
    system = SystemDescription.from_instance(instance)
    decisions = factored_trajectory(instance, buckets, seed)
    result = simulate(Emit(decisions), iter_observations(instance), system)
    schedule = np.stack([np.asarray(decision) for decision in decisions])
    assert result.schedule.x.tobytes() == schedule.tobytes()
    batch = cost_breakdown(AllocationSchedule(schedule), instance)
    for component in COMPONENTS:
        np.testing.assert_allclose(
            getattr(result.breakdown, component),
            getattr(batch, component),
            rtol=1e-9,
            atol=1e-12,
            err_msg=component,
        )
    # Residuals from the factors equal the per-user ones, clipped at zero.
    x = result.schedule.x
    per_user = (
        (np.asarray(instance.workloads)[None, :] - x.sum(axis=1)).max(),
        (x.sum(axis=2) - np.asarray(instance.capacities)[None, :]).max(),
        (-x).max(),
    )
    for got, expected in zip(
        (
            result.feasibility.demand_violation,
            result.feasibility.capacity_violation,
            result.feasibility.negativity_violation,
        ),
        (max(0.0, float(value)) for value in per_user),
    ):
        assert abs(got - expected) <= 1e-12 * max(1.0, expected)


@given(**trajectories)
@settings(max_examples=60, deadline=None)
def test_pair_aggregated_x_prev_equals_the_dense_aggregate(
    seed, num_users, num_clouds, num_slots, churn, buckets
):
    instance = churned_instance(seed, num_users, num_clouds, num_slots, churn)
    decisions = factored_trajectory(instance, buckets, seed)
    previous = [FactoredAllocation.zeros(num_clouds, num_users)] + decisions[:-1]
    for x_prev, decision in zip(previous, decisions):
        cohorts = decision.cohorts
        dense = cohorts.aggregate(np.asarray(x_prev))
        np.testing.assert_allclose(
            cohorts.aggregate(x_prev), dense, rtol=1e-12, atol=1e-12
        )
        # A dense previous decision (an earlier release's snapshot) folds
        # user by user: exactly the dense aggregate.
        trivial = FactoredAllocation(np.asarray(x_prev))
        assert cohorts.aggregate(trivial).tobytes() == dense.tobytes()


def dense_slot_costs(system, observation, x_t, x_prev):
    """The per-user accounting formulas of eqs. 1-3 and 5, on dense arrays."""
    workloads = np.asarray(system.workloads, dtype=float)
    cloud_totals = x_t.sum(axis=1)
    prev_totals = x_prev.sum(axis=1)
    operation = float(np.asarray(observation.op_prices, dtype=float) @ cloud_totals)
    d_att = np.asarray(system.inter_cloud_delay, dtype=float)[
        :, np.asarray(observation.attachment)
    ]
    service_quality = float(
        np.asarray(observation.access_delay, dtype=float).sum()
        + np.sum(x_t * (d_att / workloads[None, :]))
    )
    reconfiguration = float(
        positive_part(cloud_totals - prev_totals)
        @ np.asarray(system.reconfig_prices, dtype=float)
    )
    z_out = positive_part(x_prev - x_t).sum(axis=1)
    z_in = positive_part(x_t - x_prev).sum(axis=1)
    migration = float(
        z_out @ np.asarray(system.migration_prices.out, dtype=float)
        + z_in @ np.asarray(system.migration_prices.into, dtype=float)
    )
    return operation, service_quality, reconfiguration, migration


@given(**trajectories)
@settings(max_examples=60, deadline=None)
def test_trivial_factorization_is_bit_identical_to_the_dense_formulas(
    seed, num_users, num_clouds, num_slots, churn, buckets
):
    instance = churned_instance(seed, num_users, num_clouds, num_slots, churn)
    system = SystemDescription.from_instance(instance)
    decisions = [np.asarray(d) for d in factored_trajectory(instance, buckets, seed)]
    accumulator = CostAccumulator(system)
    x_prev = np.zeros((num_clouds, num_users))
    for observation, x_t in zip(iter_observations(instance), decisions):
        costs = accumulator.update(observation, x_t)
        expected = dense_slot_costs(system, observation, x_t, x_prev)
        got = tuple(getattr(costs, component) for component in COMPONENTS)
        assert got == expected
        x_prev = x_t
    # The dense carried state is the layout every earlier release wrote.
    assert accumulator.get_state().x_prev.tobytes() == decisions[-1].tobytes()


def test_memory_bounded_aggregated_run_never_disaggregates(monkeypatch):
    instance = churned_instance(3, num_users=30, num_clouds=3, num_slots=4, churn=0.5)
    system = SystemDescription.from_instance(instance)

    def run():
        return simulate(
            OnlineRegularizedAllocator().as_controller(system),
            iter_observations(instance),
            system,
            keep_schedule=False,
            aggregation=AggregationConfig(lambda_buckets=3),
        )

    reference = run()

    def refuse(self, x_cohorts):
        raise AssertionError("a factored slot was split back to users")

    monkeypatch.setattr(CohortMap, "disaggregate", refuse)
    factored = run()
    assert factored.schedule is None
    for component in COMPONENTS:
        assert np.array_equal(
            getattr(factored.breakdown, component),
            getattr(reference.breakdown, component),
        ), component
    assert factored.feasibility == reference.feasibility
