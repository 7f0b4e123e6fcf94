"""Cohorts: cluster users by (attached station, workload bucket).

The paper's P2 treats users as interchangeable columns up to their
workload ``lambda_j`` and attachment ``l_{j,t}``: two users with the same
attachment and the same workload enter the objective and constraints
identically. A :class:`CohortMap` exploits this — every (station, bucket)
pair with at least one member becomes one *aggregate column* carrying the
summed workload ``Lambda_g``, and a solved aggregate allocation is split
back to members proportionally to their workloads.

Proportional disaggregation is exact for the static costs (the per-user
static objective at the split equals the reduced static objective — see
docs/SCALING.md for the two-line identity) and feasibility-preserving by
construction: aggregate demand/capacity satisfaction implies per-user
demand/capacity satisfaction.

A split allocation is kept *factored* as a :class:`FactoredAllocation`
``(y, cohorts)`` from the solve to the cost accounting: every paper cost
and the next slot's cohort aggregate are functions of the
(previous cohort, cohort) pairs users move between (docs/SCALING.md §2),
so the dense (I, J) matrix is only built when a caller asks for it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np


@dataclass(frozen=True)
class BucketSpec:
    """Workload buckets shared by every slot of a run.

    Geometric edges over the global workload range keep the *relative*
    within-bucket spread uniform across buckets, which is what the cost
    error bound (:func:`repro.aggregate.reduced.aggregation_error_bound`)
    is expressed in. ``edges=None`` is the exact mode: every distinct
    workload value is its own bucket and the spread is zero.
    """

    edges: np.ndarray | None
    values: np.ndarray | None

    @classmethod
    def from_workloads(
        cls, workloads: np.ndarray, num_buckets: int | None
    ) -> "BucketSpec":
        """Build the spec once per run from the (time-invariant) workloads."""
        workloads = np.asarray(workloads, dtype=float)
        if workloads.size == 0:
            raise ValueError("need at least one user to bucket")
        if np.any(workloads <= 0):
            raise ValueError("workloads must be positive")
        if num_buckets is None or num_buckets == 0:
            return cls(edges=None, values=np.unique(workloads))
        lo, hi = float(workloads.min()), float(workloads.max())
        if num_buckets == 1 or hi <= lo:
            edges = np.array([lo, max(hi, lo)])
        else:
            edges = np.geomspace(lo, hi, num_buckets + 1)
        return cls(edges=edges, values=None)

    @property
    def num_buckets(self) -> int:
        if self.edges is None:
            assert self.values is not None
            return int(self.values.size)
        return max(1, int(self.edges.size) - 1)

    def assign(self, workloads: np.ndarray) -> np.ndarray:
        """The bucket index of each workload, shape (J,)."""
        workloads = np.asarray(workloads, dtype=float)
        if self.edges is None:
            assert self.values is not None
            idx = np.searchsorted(self.values, workloads)
            return np.clip(idx, 0, self.values.size - 1)
        idx = np.searchsorted(self.edges, workloads, side="right") - 1
        return np.clip(idx, 0, self.num_buckets - 1)


@dataclass(frozen=True)
class CohortMap:
    """One slot's (station, bucket) clustering of the user population.

    Attributes:
        cohort_of: (J,) cohort index of each user.
        stations: (G,) attached station of each cohort.
        sizes: (G,) member counts n_g.
        workloads: (G,) summed member workloads Lambda_g.
        member_share: (J,) each user's workload fraction of its cohort,
            ``lambda_j / Lambda_{g(j)}`` — the proportional split weights.
        workload_min: (G,) smallest member workload of each cohort.
        workload_max: (G,) largest member workload of each cohort.
    """

    cohort_of: np.ndarray
    stations: np.ndarray
    sizes: np.ndarray
    workloads: np.ndarray
    member_share: np.ndarray
    workload_min: np.ndarray
    workload_max: np.ndarray

    @property
    def num_cohorts(self) -> int:
        return int(np.asarray(self.stations).size)

    @property
    def num_users(self) -> int:
        return int(np.asarray(self.cohort_of).size)

    @property
    def mean_workloads(self) -> np.ndarray:
        """(G,) mean member workloads Lambda_g / n_g."""
        return np.asarray(self.workloads, dtype=float) / np.asarray(
            self.sizes, dtype=float
        )

    @property
    def reduction_ratio(self) -> float:
        """users / cohorts — how much smaller the reduced P2 is."""
        return self.num_users / self.num_cohorts

    @property
    def spread(self) -> float:
        """Worst within-cohort relative workload spread, max_g (max/min - 1).

        Zero exactly when every cohort is workload-uniform (exact buckets,
        or identical users); this is the ``r`` the cost error bound of
        docs/SCALING.md is a function of.
        """
        return float(np.max(self.workload_max / self.workload_min) - 1.0)

    def aggregate(
        self, x_users: "np.ndarray | FactoredAllocation", pairs: tuple | None = None
    ) -> np.ndarray:
        """Sum an (I, J) per-user allocation into (I, G) cohort columns.

        A :class:`FactoredAllocation` is folded pair by pair: users moving
        from its cohort ``g'`` into this map's cohort ``g`` carry
        ``y'[:, g']`` times their summed shares, one bincount over the
        pairs per cloud instead of one over the users. ``pairs`` is
        :func:`pair_map` of the allocation under this map, if the caller
        already has it.
        """
        if isinstance(x_users, FactoredAllocation):
            pair_of, before, into = pairs or pair_map(x_users, self)
            values = _pair_mass(x_users, pair_of, before)
        else:
            values = np.asarray(x_users, dtype=float)
            into = self.cohort_of
        out = np.empty((values.shape[0], self.num_cohorts))
        for i in range(values.shape[0]):
            out[i] = np.bincount(into, weights=values[i], minlength=self.num_cohorts)
        return out

    def disaggregate(self, x_cohorts: np.ndarray) -> np.ndarray:
        """Split an (I, G) cohort allocation back to (I, J) users.

        Each member receives its workload-proportional share of every
        cloud's cohort allocation, so cloud totals are preserved exactly
        and ``aggregate(disaggregate(y)) == y`` up to float summation.
        """
        y = np.asarray(x_cohorts, dtype=float)
        # take + in-place multiply: one (I, J) buffer instead of three,
        # which is the difference between 0.1s and 1s per slot at J=1e6.
        out = y.take(self.cohort_of, axis=1)
        np.multiply(out, np.asarray(self.member_share)[None, :], out=out)
        return out


def _group(key: np.ndarray, key_space: int) -> tuple[np.ndarray, np.ndarray]:
    """(sorted distinct keys, group index of each element) of ``key``.

    A dense key space (at most ``max(2**20, len(key))``) takes one
    bincount and a remap instead of ``np.unique``'s O(n log n) sort; both
    paths number the groups in key order.
    """
    if 0 < key_space <= max(1 << 20, key.size):
        present = np.flatnonzero(np.bincount(key, minlength=key_space))
        remap = np.zeros(key_space, dtype=np.intp)
        remap[present] = np.arange(present.size)
        return present, remap[key]
    return np.unique(key, return_inverse=True)


def build_cohorts(
    attachment: np.ndarray,
    workloads: np.ndarray,
    buckets: BucketSpec,
    bucket_of: np.ndarray | None = None,
) -> CohortMap:
    """Cluster one slot's users into (station, bucket) cohorts.

    Cohort order is deterministic — sorted by (station, bucket) composite
    key — so repeated builds over the same observation produce identical
    maps regardless of user order in memory. Stations with no attached
    users simply contribute no cohorts. ``bucket_of`` is
    ``buckets.assign(workloads)``, for callers that assign once per run.
    """
    attachment = np.asarray(attachment)
    lam = np.asarray(workloads, dtype=float)
    if attachment.shape != lam.shape:
        raise ValueError("attachment and workloads must be index-aligned")
    bucket = buckets.assign(lam) if bucket_of is None else bucket_of
    key = attachment.astype(np.int64) * np.int64(buckets.num_buckets) + bucket
    unique_keys, cohort_of = _group(key, (int(key.max()) + 1) if key.size else 0)
    num_cohorts = unique_keys.size
    cohort_workloads = np.bincount(cohort_of, weights=lam, minlength=num_cohorts)
    workload_max = np.zeros(num_cohorts)
    workload_min = np.full(num_cohorts, np.inf)
    np.maximum.at(workload_max, cohort_of, lam)
    np.minimum.at(workload_min, cohort_of, lam)
    return CohortMap(
        cohort_of=cohort_of,
        stations=(unique_keys // buckets.num_buckets).astype(int),
        sizes=np.bincount(cohort_of, minlength=num_cohorts),
        workloads=cohort_workloads,
        member_share=lam / cohort_workloads[cohort_of],
        workload_min=workload_min,
        workload_max=workload_max,
    )


@dataclass(frozen=True)
class FactoredAllocation:
    """A per-user allocation kept as cohort columns and a split.

    ``x[i, j] = y[i, cohort_of[j]] * member_share[j]`` under the split of
    ``cohorts``, whose shares are workload-proportional
    (``lambda_j / Lambda_g``, as :func:`build_cohorts` makes them): the
    pair identities of :func:`pair_allocations` and the spine's residuals
    rest on that. ``cohorts=None`` is the trivial factorization of a
    dense decision — one column per user, share 1, so ``x == y`` — which
    lets the direct and the cohort paths share one accounting code path.
    ``np.asarray(allocation)`` materializes the dense (I, J) matrix.

    ``pairs`` optionally carries ``(previous.cohort_of, pair_map(previous,
    self))`` for the allocation this one followed, so the slot's cost
    accounting (:func:`pair_allocations`) reuses the pairs its maker built.
    """

    y: np.ndarray
    cohorts: CohortMap | None = None
    pairs: tuple | None = field(default=None, repr=False, compare=False)

    @classmethod
    def zeros(cls, num_clouds: int, num_users: int) -> "FactoredAllocation":
        """x = 0 as a single all-user cohort holding nothing: O(J), not O(I*J)."""
        one = np.ones(1)
        return cls(
            np.zeros((num_clouds, 1)),
            CohortMap(
                cohort_of=np.zeros(num_users, dtype=np.intp),
                stations=np.zeros(1, dtype=int),
                sizes=np.array([num_users]),
                workloads=one,
                member_share=np.zeros(num_users),
                workload_min=one,
                workload_max=one,
            ),
        )

    @property
    def num_cohorts(self) -> int:
        """G, the number of columns of ``y``."""
        return int(self.y.shape[1])

    @property
    def cohort_of(self) -> np.ndarray:
        """(J,) column of each user (the identity for a trivial factorization)."""
        if self.cohorts is None:
            return np.arange(self.num_cohorts)
        return self.cohorts.cohort_of

    @property
    def member_share(self) -> np.ndarray:
        """(J,) each user's share of its column (ones when trivial)."""
        if self.cohorts is None:
            return np.ones(self.num_cohorts)
        return self.cohorts.member_share

    def materialize(self) -> np.ndarray:
        """The dense (I, J) allocation (``y`` itself when trivial)."""
        if self.cohorts is None:
            return self.y
        return self.cohorts.disaggregate(self.y)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.array(self.materialize(), dtype=dtype, copy=copy)

    def state(self) -> "np.ndarray | tuple":
        """Checkpoint form: the dense ``y`` when trivial, else ``(y, *cohort fields)``.

        The trivial form is the dense (I, J) layout every earlier release
        wrote, so :meth:`from_state` restores those snapshots unchanged.
        """
        if self.cohorts is None:
            return self.y.copy()
        cohorts = self.cohorts
        return (self.y.copy(), *(getattr(cohorts, f.name) for f in fields(cohorts)))

    @classmethod
    def from_state(cls, state: object) -> "FactoredAllocation":
        """Invert :meth:`state`."""
        if not isinstance(state, tuple):
            return cls(np.asarray(state, dtype=float).copy())
        y, *cohort_fields = state
        return cls(
            np.asarray(y, dtype=float).copy(),
            CohortMap(*(np.asarray(value) for value in cohort_fields)),
        )


def pair_map(
    previous: FactoredAllocation, current: "CohortMap | FactoredAllocation"
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (previous column, current column) pairs users move between.

    Returns ``(pair_of, previous_column, current_column)``: the pair index
    of each user, then the two ends of each pair, pairs in (previous,
    current) order. ``current`` is a cohort map or a factored allocation.
    """
    num_cohorts = current.num_cohorts
    key = previous.cohort_of.astype(np.int64) * np.int64(num_cohorts)
    key += current.cohort_of
    keys, pair_of = _group(key, previous.num_cohorts * num_cohorts)
    return pair_of, keys // num_cohorts, keys % num_cohorts


def _pair_mass(
    allocation: FactoredAllocation, pair_of: np.ndarray, column: np.ndarray
) -> np.ndarray:
    """(I, P): each pair's members' summed allocation on every cloud.

    Members of one pair hold ``share_j * y[:, column]``, so the sum is
    the column times the pair's summed shares.
    """
    shares = np.bincount(
        pair_of, weights=allocation.member_share, minlength=column.size
    )
    return allocation.y.take(column, axis=1) * shares


def pair_allocations(
    previous: FactoredAllocation, current: FactoredAllocation
) -> tuple[np.ndarray, np.ndarray]:
    """(I, P) previous and current allocations summed within each pair.

    Within a (g', g) pair every member's ratio of new to previous share is
    ``Lambda'_{g'} / Lambda_g``, so ``x_ij - x'_ij`` has one sign per
    (cloud, pair) and ``sum_j (x_ij - x'_ij)+`` over the pair equals the
    positive part of the pair sums (docs/SCALING.md §2). Two trivial
    factorizations pair user with user: the dense matrices themselves.
    """
    if previous.cohorts is None and current.cohorts is None:
        return previous.y, current.y
    # Pairs depend on the two cohort_of vectors only.
    known = current.pairs
    if known is not None and (
        known[0] is previous.cohort_of or np.array_equal(known[0], previous.cohort_of)
    ):
        pair_of, before, after = known[1]
    else:
        pair_of, before, after = pair_map(previous, current)
    return (
        _pair_mass(previous, pair_of, before),
        _pair_mass(current, pair_of, after),
    )
