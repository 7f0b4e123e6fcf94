"""The ping-pong mobility instance: a test fixture for the chasing trap.

One user bouncing between two stations every ``dwell`` slots with delay
cost d is the mobility version of the oscillating-price trap in
:mod:`repro.experiments.adversarial` (the paper's Figure 1 example (a),
generalized). It is deterministic, so measured ratios are exact
properties of the algorithms.
"""

from __future__ import annotations

import numpy as np

from repro.core.problem import CostWeights, ProblemInstance
from repro.pricing.bandwidth import MigrationPrices


def ping_pong_mobility_instance(
    *,
    num_slots: int = 24,
    delay_cost: float = 2.0,
    dwell: int = 1,
    op_price: float = 1.0,
    migration_price: float = 1.0,
    reconfig_price: float = 1.0,
    weights: CostWeights | None = None,
) -> ProblemInstance:
    """One user bouncing between two stations every ``dwell`` slots.

    Serving the user from the far cloud costs ``delay_cost`` per slot;
    following it costs ``migration_price + reconfig_price`` per move. This
    generalizes the paper's Figure 1(a): at ``delay_cost`` slightly above
    the moving cost with ``dwell = 1``, chasing is a pure loss.
    """
    if num_slots < 1:
        raise ValueError("num_slots must be positive")
    if dwell < 1:
        raise ValueError("dwell must be positive")
    attachment = ((np.arange(num_slots) // dwell) % 2).astype(np.int64)
    return ProblemInstance(
        workloads=np.array([1.0]),
        capacities=np.array([2.0, 2.0]),
        op_prices=np.full((num_slots, 2), op_price),
        reconfig_prices=np.full(2, reconfig_price),
        migration_prices=MigrationPrices(
            out=np.full(2, migration_price / 2.0),
            into=np.full(2, migration_price / 2.0),
        ),
        inter_cloud_delay=np.array([[0.0, delay_cost], [delay_cost, 0.0]]),
        attachment=attachment[:, None],
        access_delay=np.zeros((num_slots, 1)),
        weights=weights or CostWeights(),
    )
