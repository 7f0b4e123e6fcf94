"""Shared fixtures: small deterministic problem instances.

Two tiers are used across the suite:

* ``tiny_instance`` — a hand-built 3-cloud / 4-user / 5-slot instance with
  round numbers, for tests that assert exact arithmetic;
* ``small_instance`` — a seeded draw of the default taxi scenario at a very
  small scale, for integration-style tests (session-scoped: building it
  costs a trace generation and a capacity fit).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.problem import CostWeights, ProblemInstance
from repro.pricing.bandwidth import MigrationPrices
from repro.simulation.scenario import Scenario


def make_tiny_instance(
    *,
    weights: CostWeights | None = None,
    num_slots: int = 5,
    seed: int = 0,
    dynamic_prices: bool = True,
) -> ProblemInstance:
    """A fully deterministic 3-cloud, 4-user instance with simple numbers.

    ``dynamic_prices=False`` zeroes the reconfiguration and migration
    prices; P2 then loses the entropy terms' curvature, and the IPM stops
    some slots' solves unconverged.
    """
    rng = np.random.default_rng(seed)
    num_clouds, num_users = 3, 4
    workloads = np.array([2.0, 3.0, 1.0, 4.0])
    capacities = np.array([6.0, 5.0, 4.0])  # sum 15 > 10 = total workload
    op_prices = 0.5 + rng.uniform(0.0, 1.0, size=(num_slots, num_clouds))
    reconfig = np.array([0.8, 1.0, 1.2])
    migration = MigrationPrices(
        out=np.array([0.4, 0.5, 0.6]), into=np.array([0.6, 0.5, 0.4])
    )
    if not dynamic_prices:
        reconfig = np.zeros(num_clouds)
        migration = MigrationPrices(
            out=np.zeros(num_clouds), into=np.zeros(num_clouds)
        )
    delay = np.array(
        [
            [0.0, 1.0, 2.0],
            [1.0, 0.0, 1.5],
            [2.0, 1.5, 0.0],
        ]
    )
    attachment = rng.integers(0, num_clouds, size=(num_slots, num_users))
    access_delay = rng.uniform(0.0, 0.5, size=(num_slots, num_users))
    return ProblemInstance(
        workloads=workloads,
        capacities=capacities,
        op_prices=op_prices,
        reconfig_prices=reconfig,
        migration_prices=migration,
        inter_cloud_delay=delay,
        attachment=attachment,
        access_delay=access_delay,
        weights=weights or CostWeights(),
    )


@pytest.fixture
def tiny_instance() -> ProblemInstance:
    return make_tiny_instance()


@pytest.fixture(scope="session")
def small_instance() -> ProblemInstance:
    """A seeded 6-user, 4-slot draw of the default taxi scenario."""
    return Scenario(num_users=6, num_slots=4).build(seed=7)


@pytest.fixture(scope="session")
def medium_instance() -> ProblemInstance:
    """A seeded 10-user, 6-slot draw (integration tests)."""
    return Scenario(num_users=10, num_slots=6).build(seed=11)


def random_schedule(instance: ProblemInstance, seed: int = 0) -> np.ndarray:
    """A random *feasible* allocation trajectory for an instance.

    Each user's workload is split across clouds with random proportions,
    then scaled into capacity if any cloud overflows.
    """
    rng = np.random.default_rng(seed)
    t, i, j = instance.num_slots, instance.num_clouds, instance.num_users
    shares = rng.dirichlet(np.ones(i), size=(t, j))  # (T, J, I)
    x = np.transpose(shares, (0, 2, 1)) * np.asarray(instance.workloads)[None, None, :]
    capacities = np.asarray(instance.capacities, dtype=float)
    for slot in range(t):
        x[slot] = _project_to_capacity(x[slot], capacities)
    return x


def _project_to_capacity(x: np.ndarray, capacities: np.ndarray) -> np.ndarray:
    """Shift load between clouds (preserving user totals) until within capacity."""
    x = x.copy()
    for _ in range(1000):
        totals = x.sum(axis=1)
        overload = totals - capacities
        worst = int(np.argmax(overload))
        if overload[worst] <= 1e-12:
            return x
        slack = capacities - totals
        target = int(np.argmax(slack))
        move = min(overload[worst], slack[target])
        fraction = move / totals[worst]
        moved = x[worst] * fraction
        x[worst] -= moved
        x[target] += moved
    raise AssertionError("capacity projection did not converge")
