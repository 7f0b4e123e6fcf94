"""The fused migration-entropy pass equals the per-cloud per-user oracle.

``AggregatedController`` measures each slot's disaggregation error from
the per-user migration entropy of ``x*_{t-1} -> x_t``, evaluated from the
two factorizations in pair form (``_member_migration_entropy``).
:func:`member_entropy_oracle` below is the straightforward evaluation it
replaced: cloud by cloud, the two per-user rows built from the factors,
then the P2 migration terms summed with the ``1/tau`` weights. Hypothesis
draws small populations with churn, the zero start, buckets exact/1/3/8
and a dense ``x_prev`` restored as the trivial factorization; the fused
pass must equal the oracle to 1e-12 relative.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregate import BucketSpec, build_cohorts
from repro.aggregate.cohorts import FactoredAllocation, pair_map
from repro.aggregate.controller import _member_migration_entropy
from repro.core.bounds import tau


def migration_terms(x, x_prev, eps2):
    """``(x + eps2) ln((x + eps2)/(x' + eps2)) - x`` elementwise."""
    xs = x + eps2
    return xs * np.log(xs / (x_prev + eps2)) - x


def member_entropy_oracle(
    migration_prices, inverse_tau, eps2, previous, current
) -> float:
    """``sum_i b_i sum_j migration_terms(x_ij, x'_ij) / tau_j``, cloud by cloud."""
    after, share = current.cohort_of, current.member_share
    before, previous_share = previous.cohort_of, previous.member_share
    total = 0.0
    for i, price in enumerate(np.asarray(migration_prices, dtype=float)):
        x = current.y[i].take(after)
        x *= share
        x_prev = previous.y[i].take(before)
        x_prev *= previous_share
        total += price * float(np.sum(migration_terms(x, x_prev, eps2) * inverse_tau))
    return total


def _allocation(rng, num_clouds, workloads, attachment, spec):
    """Random cohort columns (some zero) over the attachment's cohorts."""
    cohorts = build_cohorts(attachment, workloads, spec)
    y = rng.uniform(0.0, 2.0, size=(num_clouds, cohorts.num_cohorts))
    y[rng.random(y.shape) < 0.3] = 0.0
    return FactoredAllocation(y, cohorts)


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    num_users=st.integers(min_value=1, max_value=40),
    num_clouds=st.integers(min_value=1, max_value=5),
    churn=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
    buckets=st.sampled_from([None, 1, 3, 8]),
    start=st.sampled_from(["zero", "factored", "dense"]),
    eps2=st.sampled_from([0.05, 1.0, 3.0]),
)
@settings(max_examples=120, deadline=None)
def test_fused_entropy_equals_the_per_cloud_oracle(
    seed, num_users, num_clouds, churn, buckets, start, eps2
):
    rng = np.random.default_rng(seed)
    workloads = rng.choice([0.5, 1.0, 2.5, 4.0], size=num_users) * rng.uniform(
        0.9, 1.1, size=num_users
    )
    spec = BucketSpec.from_workloads(workloads, buckets)
    before = rng.integers(0, num_clouds, size=num_users)
    moving = rng.random(num_users) < churn
    after = np.where(moving, rng.integers(0, num_clouds, size=num_users), before)
    current = _allocation(rng, num_clouds, workloads, after, spec)
    if start == "zero":
        previous = FactoredAllocation.zeros(num_clouds, num_users)
    elif start == "factored":
        previous = _allocation(rng, num_clouds, workloads, before, spec)
    else:  # a dense x_prev from an older snapshot
        previous = FactoredAllocation.from_state(
            np.asarray(_allocation(rng, num_clouds, workloads, before, spec))
        )
    prices = rng.uniform(0.1, 2.0, size=num_clouds)
    inverse_tau = 1.0 / tau(workloads, eps2)

    expected = member_entropy_oracle(prices, inverse_tau, eps2, previous, current)
    fused = _member_migration_entropy(
        prices,
        workloads,
        inverse_tau,
        eps2,
        previous,
        current,
        pair_map(previous, current),
    )
    assert math.isclose(fused, expected, rel_tol=1e-12, abs_tol=1e-12)
