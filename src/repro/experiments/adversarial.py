"""Adversarial instance families (the paper's "lower bounds" future work).

The Remark after Theorem 2 leaves lower bounds on the competitive ratio as
future work. This generator builds a structured worst case that drives online
algorithms to their limits, letting the harness *measure* empirical lower
bounds:

* :func:`oscillating_price_instance` — two clouds whose operation prices
  swap every ``period`` slots with amplitude A. The one-slot gain from
  chasing the cheap cloud is A·λ; the cost of moving is (b + c)·λ. Greedy's
  decision flips discontinuously at A ≈ b + c (too conservative below, too
  aggressive at/above when the price keeps flipping), while the regularized
  algorithm hedges fractionally across the threshold.

The family is deterministic — no randomness, so measured ratios are exact
properties of the algorithms. Its mobility counterpart, a user bouncing
between two stations, is a test fixture (``tests/experiments/adversarial.py``).
"""

from __future__ import annotations

import numpy as np

from ..core.problem import CostWeights, ProblemInstance
from ..pricing.bandwidth import MigrationPrices


def oscillating_price_instance(
    *,
    num_slots: int = 24,
    amplitude: float = 1.0,
    period: int = 2,
    base_price: float = 1.0,
    migration_price: float = 1.0,
    reconfig_price: float = 1.0,
    inter_cloud_delay: float = 0.1,
    weights: CostWeights | None = None,
) -> ProblemInstance:
    """Two clouds, one unit-workload user, operation prices that swap sides.

    Cloud 0 costs ``base + amplitude`` during odd phases and ``base`` during
    even phases; cloud 1 mirrors it. The user stays attached to cloud 0
    (mobility plays no role here). ``period`` slots pass between swaps.
    """
    if num_slots < 1:
        raise ValueError("num_slots must be positive")
    if period < 1:
        raise ValueError("period must be positive")
    if amplitude < 0:
        raise ValueError("amplitude must be nonnegative")
    phase = (np.arange(num_slots) // period) % 2
    op_prices = np.empty((num_slots, 2))
    op_prices[:, 0] = base_price + amplitude * phase
    op_prices[:, 1] = base_price + amplitude * (1 - phase)
    return ProblemInstance(
        workloads=np.array([1.0]),
        capacities=np.array([2.0, 2.0]),
        op_prices=op_prices,
        reconfig_prices=np.full(2, reconfig_price),
        migration_prices=MigrationPrices(
            out=np.full(2, migration_price / 2.0),
            into=np.full(2, migration_price / 2.0),
        ),
        inter_cloud_delay=np.array(
            [[0.0, inter_cloud_delay], [inter_cloud_delay, 0.0]]
        ),
        attachment=np.zeros((num_slots, 1), dtype=np.int64),
        access_delay=np.zeros((num_slots, 1)),
        weights=weights or CostWeights(),
    )


def run_threshold_sweep(
    amplitudes: tuple[float, ...] = (1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0),
    *,
    num_slots: int = 24,
    period: int = 1,
) -> dict[float, dict[str, float]]:
    """Ratios of greedy and online-approx across the chase/stay threshold.

    With migration + reconfiguration cost 2.0 per unit and prices flipping
    every slot (period 1), chasing gains A per slot but costs 2 per slot,
    while staying costs A/2 per slot on average. Greedy chases as soon as
    A > 2; parking is better until A > 4 — so on A in (2, 4) greedy flaps
    at a pure loss. The regularized algorithm hedges fractionally and
    crosses the region smoothly.

    Returns:
        amplitude -> {algorithm name -> empirical competitive ratio}.
    """
    from ..baselines import OfflineOptimal, OnlineGreedy
    from ..core.costs import total_cost
    from ..core.regularization import OnlineRegularizedAllocator

    sweep: dict[float, dict[str, float]] = {}
    for amplitude in amplitudes:
        instance = oscillating_price_instance(
            num_slots=num_slots, amplitude=amplitude, period=period
        )
        offline = total_cost(OfflineOptimal().run(instance), instance)
        ratios = {}
        for algorithm in (OnlineGreedy(), OnlineRegularizedAllocator()):
            ratios[algorithm.name] = (
                total_cost(algorithm.run(instance), instance) / offline
            )
        sweep[amplitude] = ratios
    return sweep
