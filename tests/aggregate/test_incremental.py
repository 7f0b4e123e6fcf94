"""Incremental cohorts: a slot derived from the movers equals a fresh build.

:func:`build_cohorts` given the previous decision's map regroups only the
users whose attachment changed. Hypothesis drives an
:class:`AggregatedController` over random attachment streams — slots
with no movers and with every user moving, a station that empties, a
cohort that empties and comes back, ``reset`` and a ``set_state`` round
trip mid-stream — and at every slot compares the controller's map, pairs
and reduced solution with :func:`build_cohorts` and :func:`pair_map`
from scratch on that slot:

* stations, sizes and cohort order are equal, and so are the per-user
  ``cohort_of`` and the pair of every user;
* cohort workloads ``Lambda_g``, member shares and the pair-summed
  allocations agree to ``RTOL`` relative;
* the reduced solution agrees to ``SOLUTION_TOL``.

A stayer's cohort workload is carried as ``Lambda'_g`` minus the movers
out, so over a long stream it may drift from a fresh ``np.bincount``; a
1,000-slot low-churn stream bounds that drift by ``DRIFT_TOL``.
"""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.aggregate import AggregatedController, AggregationConfig, BucketSpec
from repro.aggregate.cohorts import (
    FactoredAllocation,
    build_cohorts,
    pair_allocations,
    pair_map,
)
from repro.aggregate.reduced import reduced_subproblem, solve_sharded
from repro.core.problem import CostWeights, MigrationPrices
from repro.core.regularization import OnlineRegularizedAllocator, repair_feasibility
from repro.simulation.observations import SlotObservation, SystemDescription

#: Cohort workloads, shares and pair sums: incremental against fresh.
RTOL = 1e-12
#: The reduced solution from incremental against fresh inputs.
SOLUTION_TOL = 1e-7
#: Relative drift of the carried cohort workloads over 1,000 slots.
DRIFT_TOL = 1e-12

EVENTS = ("some", "none", "all", "empty_station", "reset", "set_state")


def _system(rng, num_users, num_clouds):
    workloads = rng.choice([0.5, 1.0, 2.5, 4.0], size=num_users) * rng.uniform(
        0.9, 1.1, size=num_users
    )
    delay = rng.uniform(0.5, 3.0, size=(num_clouds, num_clouds))
    delay = (delay + delay.T) / 2.0
    np.fill_diagonal(delay, 0.0)
    return SystemDescription(
        workloads=workloads,
        capacities=np.full(num_clouds, 1.5 * workloads.sum()),
        reconfig_prices=rng.uniform(0.5, 1.5, size=num_clouds),
        migration_prices=MigrationPrices(
            out=rng.uniform(0.2, 0.8, size=num_clouds),
            into=rng.uniform(0.2, 0.8, size=num_clouds),
        ),
        inter_cloud_delay=delay,
        weights=CostWeights(),
    )


def _next_attachment(rng, event, attachment, num_clouds):
    if event == "none":
        return attachment.copy()
    if event == "all":
        if num_clouds == 1:
            return attachment.copy()
        shift = rng.integers(1, num_clouds, size=attachment.size)
        return (attachment + shift) % num_clouds
    if event == "empty_station":
        station = int(attachment[0])
        moved = attachment.copy()
        leaving = attachment == station
        moved[leaving] = (station + 1) % num_clouds
        return moved
    moving = rng.random(attachment.size) < 0.3
    return np.where(
        moving, rng.integers(0, num_clouds, size=attachment.size), attachment
    )


def _sorted_pairs(before, after, num_after, *sums):
    order = np.argsort(before * num_after + after)
    return (before[order], after[order], *(s[:, order] for s in sums))


def _check_slot(system, controller, observation, previous, decision, spec):
    workloads = np.asarray(system.workloads)
    cohorts = decision.cohorts
    fresh = build_cohorts(observation.attachment, workloads, spec)
    # The map: stations, sizes and order exact; workloads to rounding.
    assert np.array_equal(cohorts.stations, fresh.stations)
    assert np.array_equal(cohorts.sizes, fresh.sizes)
    np.testing.assert_allclose(cohorts.workloads, fresh.workloads, rtol=RTOL)
    assert np.array_equal(cohorts.cohort_of, fresh.cohort_of)
    np.testing.assert_allclose(cohorts.member_share, fresh.member_share, rtol=RTOL)
    assert np.array_equal(cohorts.workload_min, fresh.workload_min)
    assert np.array_equal(cohorts.workload_max, fresh.workload_max)

    # The pairs: each user's pair joins its previous and current column.
    pairs = cohorts.pairs_from(previous)
    pair_of = pairs.pair_of(cohorts.cohort_of)
    assert np.array_equal(pairs.before[pair_of], previous.cohort_of)
    assert np.array_equal(pairs.after[pair_of], cohorts.cohort_of)
    fresh_pair_of, fresh_before, fresh_after = pair_map(previous, fresh)
    assert pairs.before.size == fresh_before.size
    fresh_decision = FactoredAllocation(decision.y, fresh)
    got = _sorted_pairs(
        pairs.before, pairs.after, fresh.num_cohorts,
        *pair_allocations(previous, decision),
    )
    shares = [
        np.bincount(fresh_pair_of, weights=side.member_share)
        for side in (previous, fresh_decision)
    ]
    expected = _sorted_pairs(
        fresh_before, fresh_after, fresh.num_cohorts,
        previous.y.take(fresh_before, axis=1) * shares[0],
        decision.y.take(fresh_after, axis=1) * shares[1],
    )
    for a, b in zip(got[:2], expected[:2]):
        assert np.array_equal(a, b)
    for a, b in zip(got[2:], expected[2:]):
        np.testing.assert_allclose(a, b, rtol=RTOL, atol=1e-14)

    # The reduced solution from the fresh map and the fresh x_prev fold.
    algorithm = controller.algorithm
    subproblem = reduced_subproblem(
        system,
        observation,
        fresh,
        fresh.aggregate(previous),
        eps1=algorithm.eps1,
        eps2=algorithm.eps2,
    )
    y = np.asarray(solve_sharded(subproblem, tol=algorithm.tol).x).reshape(
        subproblem.num_clouds, subproblem.num_users
    )
    y = repair_feasibility(y, fresh.workloads, fresh.stations)
    scale = max(1.0, float(np.abs(y).max()))
    np.testing.assert_allclose(decision.y, y, rtol=0.0, atol=SOLUTION_TOL * scale)


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    num_users=st.integers(min_value=1, max_value=30),
    num_clouds=st.integers(min_value=1, max_value=4),
    buckets=st.sampled_from([None, 1, 3]),
    events=st.lists(st.sampled_from(EVENTS), min_size=1, max_size=7),
)
@settings(max_examples=60, deadline=None)
def test_incremental_slots_equal_a_fresh_build(
    seed, num_users, num_clouds, buckets, events
):
    rng = np.random.default_rng(seed)
    system = _system(rng, num_users, num_clouds)
    config = AggregationConfig(lambda_buckets=buckets)
    controller = AggregatedController(
        system=system, algorithm=OnlineRegularizedAllocator(), config=config
    )
    spec = BucketSpec.from_workloads(np.asarray(system.workloads), buckets)
    attachment = rng.integers(0, num_clouds, size=num_users)
    previous = FactoredAllocation.zeros(num_clouds, num_users)
    for slot, event in enumerate(["some", *events]):
        if event == "reset":
            controller.reset()
            previous = FactoredAllocation.zeros(num_clouds, num_users)
        elif event == "set_state":
            controller.set_state(controller.get_state())
        attachment = _next_attachment(rng, event, attachment, num_clouds)
        observation = SlotObservation(
            slot=slot,
            op_prices=rng.uniform(0.5, 1.5, size=num_clouds),
            attachment=attachment,
            access_delay=np.zeros(num_users),
        )
        derived = controller.get_state()[0]
        decision = controller.observe(observation)
        controller.settle()
        # Every slot derives its pairs; past slot 0 and reset, only the
        # movers were regrouped.
        assert decision.cohorts.pairs is not None
        incremental = isinstance(derived, tuple) and derived[5].min() > 0
        assert (decision.cohorts.pairs.movers is not None) == incremental
        _check_slot(system, controller, observation, previous, decision, spec)
        previous = decision


def test_carried_cohort_workloads_drift_less_than_the_bound():
    rng = np.random.default_rng(1809)
    num_users, num_clouds, num_slots = 2_000, 10, 1_000
    workloads = rng.pareto(1.5, size=num_users) + 0.1
    spec = BucketSpec.from_workloads(workloads, 4)
    bucket_of = spec.assign(workloads)
    attachment = rng.integers(0, num_clouds, size=num_users)
    cohorts = build_cohorts(attachment, workloads, spec, bucket_of)
    worst = 0.0
    for _ in range(num_slots):
        attachment = attachment.copy()
        movers = np.flatnonzero(rng.random(num_users) < 0.03)
        attachment[movers] = rng.integers(0, num_clouds, size=movers.size)
        cohorts = build_cohorts(attachment, workloads, spec, bucket_of, cohorts)
        exact = np.bincount(cohorts.cohort_of, weights=workloads)
        worst = max(worst, float(np.max(np.abs(cohorts.workloads - exact) / exact)))
    assert worst <= DRIFT_TOL, worst


def test_a_pickled_controller_continues_bit_for_bit():
    rng = np.random.default_rng(7)
    system = _system(rng, 40, 4)
    controller = AggregatedController(
        system=system,
        algorithm=OnlineRegularizedAllocator(),
        config=AggregationConfig(lambda_buckets=3),
    )
    attachment = rng.integers(0, 4, size=40)
    observations = []
    for slot in range(3):
        attachment = _next_attachment(rng, "some", attachment, 4)
        observations.append(
            SlotObservation(
                slot=slot,
                op_prices=rng.uniform(0.5, 1.5, size=4),
                attachment=attachment,
                access_delay=np.zeros(40),
            )
        )
    controller.observe(observations[0])
    controller.observe(observations[1])
    clone = pickle.loads(pickle.dumps(controller))
    expected = np.asarray(controller.observe(observations[2]))
    assert np.asarray(clone.observe(observations[2])).tobytes() == expected.tobytes()


def test_a_slot_without_movers_leaves_numpy_ma_unloaded():
    # Plain ``np.unique`` imports numpy.ma (about 20 ms) on its first
    # call; a fresh server's first slot without movers must not pay it.
    # A fresh interpreter, because this process has imported everything.
    code = """
import sys
import numpy as np
from repro.aggregate import AggregatedController, AggregationConfig
from repro.core.problem import CostWeights, MigrationPrices
from repro.core.regularization import OnlineRegularizedAllocator
from repro.simulation.observations import SlotObservation, SystemDescription

J, I = 40, 3
workloads = np.linspace(1.0, 3.0, J)
system = SystemDescription(
    workloads=workloads,
    capacities=np.full(I, 2.0 * workloads.sum()),
    reconfig_prices=np.ones(I),
    migration_prices=MigrationPrices(out=np.full(I, 0.5), into=np.full(I, 0.5)),
    inter_cloud_delay=np.ones((I, I)) - np.eye(I),
    weights=CostWeights(),
)
controller = AggregatedController(
    system=system,
    algorithm=OnlineRegularizedAllocator(),
    config=AggregationConfig(lambda_buckets=4),
)
attachment = np.arange(J) % I
for slot in range(2):
    controller.observe(
        SlotObservation(
            slot=slot,
            op_prices=np.ones(I),
            attachment=attachment,
            access_delay=np.zeros(J),
        )
    )
    controller.settle()
assert controller._x_prev.cohorts.pairs.movers.size == 0
print("numpy.ma" in sys.modules)
"""
    src = str(Path(repro.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        check=True,
        timeout=120,
    )
    assert result.stdout.split() == ["False"]


def test_a_restored_zero_decision_regroups_every_user():
    # One station and one bucket: the all-user cohort of a fresh
    # controller's x = 0 is also the clustering's only cohort, but its
    # workload is a placeholder, so the next slot must regroup every user.
    rng = np.random.default_rng(3)
    system = _system(rng, 12, 1)

    def make():
        return AggregatedController(
            system=system,
            algorithm=OnlineRegularizedAllocator(),
            config=AggregationConfig(lambda_buckets=1),
        )

    restored = make()
    restored.set_state(make().get_state())
    decision = restored.observe(
        SlotObservation(
            slot=0,
            op_prices=np.ones(1),
            attachment=np.zeros(12, dtype=int),
            access_delay=np.zeros(12),
        )
    )
    assert decision.cohorts.pairs.movers is None
    np.testing.assert_allclose(decision.cohorts.workloads, [system.workloads.sum()])
