"""Fuzz the full pipeline: random scenario configurations must never break
the online algorithm's feasibility guarantee.

Hypothesis draws topology shapes, user/slot counts, price scales, weights,
and capacity headroom; for every draw the regularized allocator must
produce a feasible trajectory and never beat the offline optimum.
"""

import threading

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    CostWeights,
    OfflineOptimal,
    OnlineRegularizedAllocator,
    Scenario,
    total_cost,
)
from repro.aggregate import AggregationConfig
from repro.mobility import RandomWalkMobility, TaxiMobility
from repro.solvers.base import SolveBudget
from repro.solvers.batched import BatchCoordinator, DeferringBackend
from repro.topology import rome_metro_topology
from tests.topology.generators import grid_topology, ring_topology


@st.composite
def scenario_configs(draw):
    topology_kind = draw(st.sampled_from(["ring", "grid", "metro"]))
    if topology_kind == "ring":
        topology = ring_topology(draw(st.integers(min_value=3, max_value=6)))
    elif topology_kind == "grid":
        topology = grid_topology(2, draw(st.integers(min_value=2, max_value=3)))
    else:
        topology = rome_metro_topology()
    mobility_kind = draw(st.sampled_from(["walk", "taxi"]))
    mobility = (
        RandomWalkMobility(topology)
        if mobility_kind == "walk"
        else TaxiMobility(topology)
    )
    return Scenario(
        topology=topology,
        mobility=mobility,
        num_users=draw(st.integers(min_value=1, max_value=5)),
        num_slots=draw(st.integers(min_value=1, max_value=3)),
        workload_distribution=draw(st.sampled_from(["power", "uniform", "normal"])),
        weights=CostWeights.from_mu(draw(st.sampled_from([0.1, 1.0, 10.0]))),
        overprovision=draw(st.sampled_from([1.1, 1.25, 2.0])),
        op_reference_price=draw(st.sampled_from([0.1, 0.3, 1.0])),
        delay_price_per_km=draw(st.sampled_from([0.5, 2.0])),
    )


@given(config=scenario_configs(), seed=st.integers(min_value=0, max_value=1000))
@settings(max_examples=12, deadline=None)
def test_online_always_feasible_never_beats_offline(config, seed):
    instance = config.build(seed=seed)
    schedule = OnlineRegularizedAllocator().run(instance)
    schedule.require_feasible(instance, tol=1e-5)
    offline_cost = total_cost(OfflineOptimal().run(instance), instance)
    online_cost = total_cost(schedule, instance)
    assert online_cost >= offline_cost - 1e-6 * max(1.0, abs(offline_cost))


@given(config=scenario_configs(), seed=st.integers(min_value=0, max_value=1000))
@settings(max_examples=8, deadline=None)
def test_instances_always_well_formed(config, seed):
    instance = config.build(seed=seed)
    assert instance.capacities.sum() >= instance.total_workload - 1e-9
    assert np.all(np.asarray(instance.op_prices) > 0)
    assert np.all(np.asarray(instance.workloads) >= 1)
    prices = instance.static_prices(0)
    assert prices.shape == (instance.num_clouds, instance.num_users)
    assert np.all(prices >= 0)


def _batched_schedules(instance, budget):
    """Two runs of ``instance`` whose P2 solves stack into lockstep calls."""
    coordinator = BatchCoordinator(total=2)
    schedules = [None, None]

    def run(index):
        try:
            schedules[index] = OnlineRegularizedAllocator(
                backend=DeferringBackend(coordinator), budget=budget
            ).run(instance)
        finally:
            coordinator.finish()

    threads = [threading.Thread(target=run, args=(index,)) for index in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return schedules


@given(
    config=scenario_configs(),
    seed=st.integers(min_value=0, max_value=1000),
    path=st.sampled_from(["direct", "aggregated", "batched"]),
    budget=st.one_of(
        st.none(),
        st.builds(SolveBudget, max_iterations=st.integers(0, 6)),
        st.builds(SolveBudget, deadline_s=st.sampled_from([0.0, 2e-4])),
    ),
)
@settings(max_examples=12, deadline=None)
def test_theorem1_feasibility_on_every_path(config, seed, path, budget):
    """Theorem 1: every slot's decision is feasible on every solve path.

    Direct per-user solves, the aggregated joint reduced solve and lockstep
    batched solves, each unbudgeted, under an iteration cap, or under a
    wall-clock deadline that truncates the solve wherever it fires.
    """
    instance = config.build(seed=seed)
    if path == "batched":
        schedules = _batched_schedules(instance, budget)
    else:
        aggregation = AggregationConfig() if path == "aggregated" else None
        allocator = OnlineRegularizedAllocator(budget=budget, aggregation=aggregation)
        schedules = [allocator.run(instance)]
    workloads = np.asarray(instance.workloads, dtype=float)
    capacities = np.asarray(instance.capacities, dtype=float)
    for schedule in schedules:
        x = np.asarray(schedule.x, dtype=float)  # (T, I, J)
        assert x.shape[0] == instance.num_slots
        assert np.all(x.sum(axis=1) >= workloads - 1e-9)
        assert np.all(x.sum(axis=2) <= capacities + 1e-9)
        assert np.all(x >= -1e-9)
