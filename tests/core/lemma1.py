"""Lemma 1 as a test-side check: P1 never exceeds P0 by more than sigma.

``src/`` keeps only what the algorithm needs of the P0 -> P1
transformation (:mod:`repro.core.transformation`: the combined price and
P1's migration cost). The lemma's statement lives here, next to the tests
that check it on arbitrary and algorithm-produced schedules.
"""

from __future__ import annotations

import numpy as np

from repro.core.allocation import AllocationSchedule
from repro.core.costs import (
    cost_breakdown,
    operation_cost,
    positive_part,
    reconfiguration_cost,
    service_quality_cost,
)
from repro.core.problem import ProblemInstance
from repro.core.transformation import p1_migration_cost


def transformation_constant(instance: ProblemInstance) -> float:
    """sigma = Sum_i b_i^out C_i from Lemma 1.

    The additive slack between the P0 and P1 objectives (in unweighted
    migration-cost units).
    """
    return float(
        np.asarray(instance.migration_prices.out, dtype=float)
        @ np.asarray(instance.capacities, dtype=float)
    )


def p1_objective(schedule: AllocationSchedule, instance: ProblemInstance) -> float:
    """The P1 objective: static costs + reconfiguration + inbound-only migration.

    Weighted exactly like P0: static weight on (op + sq), dynamic weight on
    (rc + combined-price inbound migration).
    """
    static = operation_cost(schedule, instance) + service_quality_cost(schedule, instance)
    dynamic = reconfiguration_cost(schedule, instance) + p1_migration_cost(schedule, instance)
    return float(
        instance.weights.static * static.sum() + instance.weights.dynamic * dynamic.sum()
    )


def p0_objective(schedule: AllocationSchedule, instance: ProblemInstance) -> float:
    """The original P0 objective (same as :func:`repro.core.costs.total_cost`)."""
    return cost_breakdown(schedule, instance).total


def per_user_inbound_migration(schedule: AllocationSchedule) -> np.ndarray:
    """z_{i,j,t} = (x_{i,j,t} - x_{i,j,t-1})+ (paper eq. 9), shape (T, I, J)."""
    x, prev = schedule.with_previous()
    return positive_part(x - prev)


def lemma1_gap(schedule: AllocationSchedule, instance: ProblemInstance) -> float:
    """P0(x) - [P1(x) - w_d * sigma]; Lemma 1 guarantees this is >= 0.

    For *any* schedule, P1 <= P0 + w_d*sigma, i.e. the returned value is
    nonnegative (up to numerical noise).
    """
    sigma = transformation_constant(instance)
    return (
        p0_objective(schedule, instance)
        - p1_objective(schedule, instance)
        + instance.weights.dynamic * sigma
    )
