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

A slot's map is derived from the previous slot's map and the *movers*,
the users whose attachment changed (:func:`build_cohorts`): the cohorts,
their workloads and the pairs cost O(movers + pairs) past one O(J)
comparison, and the per-user fields are computed on first use.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property

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


@dataclass(frozen=True, eq=False)
class _Population:
    """The run-constant per-user inputs of a map: workloads and buckets."""

    workloads: np.ndarray
    bucket_of: np.ndarray
    num_buckets: int

    def keys(self, stations: np.ndarray, users: np.ndarray | None = None) -> np.ndarray:
        """Composite (station, bucket) keys of ``users`` (all when ``None``).

        ``stations`` is the attachment of exactly those users.
        """
        bucket = self.bucket_of if users is None else self.bucket_of[users]
        return stations.astype(np.int64) * np.int64(self.num_buckets) + bucket

    def matches(self, other: "_Population") -> bool:
        return self is other or (
            self.num_buckets == other.num_buckets
            and _same(self.bucket_of, other.bucket_of)
            and _same(self.workloads, other.workloads)
        )


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    return a is b or np.array_equal(a, b)


#: The map fields a snapshot carries, in :meth:`FactoredAllocation.state` order.
_STATE_FIELDS = (
    "cohort_of",
    "stations",
    "sizes",
    "workloads",
    "member_share",
    "workload_min",
    "workload_max",
)


class CohortMap:
    """One slot's (station, bucket) clustering of the user population.

    Attributes:
        stations: (G,) attached station of each cohort.
        sizes: (G,) member counts n_g.
        workloads: (G,) summed member workloads Lambda_g.
        cohort_of: (J,) cohort index of each user.
        attachment: (J,) the slot's attachment this map was built from
            (``None`` for a map given field by field).
        member_share: (J,) each user's workload fraction of its cohort,
            ``lambda_j / Lambda_{g(j)}`` — the proportional split weights.
        workload_min: (G,) smallest member workload of each cohort.
        workload_max: (G,) largest member workload of each cohort.
        pairs: the :class:`CohortPairs` from the previous decision's
            columns (:meth:`pairs_from`), or ``None`` until asked for.

    A map :func:`build_cohorts` makes computes its per-user fields (and
    ``workload_min``/``workload_max``) on first use; the constructor takes
    every field as given — a snapshot's, or :meth:`FactoredAllocation.zeros`'.
    """

    def __init__(
        self,
        cohort_of,
        stations,
        sizes,
        workloads,
        member_share,
        workload_min,
        workload_max,
    ) -> None:
        self.stations = np.asarray(stations)
        self.sizes = np.asarray(sizes)
        self.workloads = np.asarray(workloads)
        self.num_users = int(np.asarray(cohort_of).size)
        self.attachment: np.ndarray | None = None
        self.keys: np.ndarray | None = None
        self.population: _Population | None = None
        self.pairs: CohortPairs | None = None
        # Seed the cached per-user fields: nothing is derived.
        vars(self).update(
            cohort_of=np.asarray(cohort_of),
            member_share=np.asarray(member_share),
            workload_min=np.asarray(workload_min),
            workload_max=np.asarray(workload_max),
        )

    @classmethod
    def _built(
        cls,
        keys: np.ndarray,
        sizes: np.ndarray,
        workloads: np.ndarray,
        attachment: np.ndarray,
        population: _Population,
        *,
        pairs: "CohortPairs | None" = None,
        cohort_of: np.ndarray | None = None,
    ) -> "CohortMap":
        """A map over sorted cohort ``keys``; per-user fields come on first use."""
        self = cls.__new__(cls)
        self.keys = keys
        self.stations = keys // population.num_buckets
        self.sizes = sizes
        self.workloads = workloads
        self.num_users = int(attachment.size)
        self.population = population
        self.pairs = pairs
        self.attachment = attachment
        if cohort_of is not None:
            vars(self)["cohort_of"] = cohort_of
        return self

    @property
    def num_cohorts(self) -> int:
        return int(self.stations.size)

    @cached_property
    def cohort_of(self) -> np.ndarray:
        assert self.population is not None and self.keys is not None
        assert self.attachment is not None
        return _locate(self.keys, self.population.keys(self.attachment))

    @cached_property
    def member_share(self) -> np.ndarray:
        assert self.population is not None
        return self.population.workloads / self.workloads[self.cohort_of]

    @cached_property
    def workload_min(self) -> np.ndarray:
        assert self.population is not None
        out = np.full(self.num_cohorts, np.inf)
        np.minimum.at(out, self.cohort_of, self.population.workloads)
        return out

    @cached_property
    def workload_max(self) -> np.ndarray:
        assert self.population is not None
        out = np.zeros(self.num_cohorts)
        np.maximum.at(out, self.cohort_of, self.population.workloads)
        return out

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

    def pairs_from(self, previous: "FactoredAllocation") -> "CohortPairs":
        """The pairs users move along from ``previous``'s columns into this map.

        The pairs :func:`build_cohorts` derived, when they start from
        ``previous``'s map (or an equal one); otherwise — a map built
        without a previous one, a dense ``previous`` — the pairs grouped
        user by user replace them.
        """
        if self.pairs is None or not self.pairs.starts_from(previous):
            self.pairs = _user_pairs(previous, self)
        return self.pairs

    def aggregate(self, x_users: "np.ndarray | FactoredAllocation") -> np.ndarray:
        """Sum an (I, J) per-user allocation into (I, G) cohort columns.

        A :class:`FactoredAllocation` is folded pair by pair: users moving
        from its column ``g'`` into this map's cohort ``g`` carry
        ``y'[:, g']`` times their summed shares (:meth:`pairs_from`), one
        bincount over the pairs per cloud instead of one over the users.
        """
        if isinstance(x_users, FactoredAllocation):
            pairs = self.pairs_from(x_users)
            values = x_users.y.take(pairs.before, axis=1) * pairs.before_share
            into = pairs.after
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

    def carrying(self, snapshot: "CohortMap") -> "CohortMap":
        """This map with ``snapshot``'s workloads, shares and workload extremes.

        For a snapshot of this same clustering: its workloads are the ones
        the recorded run carried from slot to slot, so a resumed run
        derives its next slot exactly as the recorded one did.
        """
        for name in _STATE_FIELDS[3:]:
            vars(self)[name] = getattr(snapshot, name)
        return self


@dataclass(frozen=True, eq=False)
class CohortPairs:
    """The (previous column, current column) pairs a slot's users move along.

    Attributes:
        before: (P,) previous column of each pair.
        after: (P,) current column of each pair.
        before_share: (P,) the members' summed shares of their previous
            column.
        after_share: (P,) the members' summed shares of their current
            column.
        movers: (M,) the users whose pair is not their cohort's stayers'
            pair, or ``None`` when every user is a mover.
        mover_pair: (M,) pair of each mover ((J,) when ``movers`` is None).
        stayer_pair: (G,) pair of each current cohort's stayers (-1 where
            it has none), or ``None`` for pairs grouped user by user.
        origin: weak reference to the map the pairs start from.
    """

    before: np.ndarray
    after: np.ndarray
    before_share: np.ndarray
    after_share: np.ndarray
    movers: np.ndarray | None
    mover_pair: np.ndarray
    stayer_pair: np.ndarray | None
    origin: "weakref.ref | None"

    def __getstate__(self) -> dict:
        # A weak reference does not pickle: unpickled pairs start from no
        # map, so pairs_from regroups them user by user.
        return {**vars(self), "origin": None}

    def starts_from(self, previous: "FactoredAllocation") -> bool:
        """Whether these are the pairs from ``previous``'s columns.

        True for the map they were derived from and for a map with the
        same fields (a snapshot of it restored elsewhere).
        """
        origin = None if self.origin is None else self.origin()
        start = previous.cohorts
        if origin is None or start is None:
            return False
        return origin is start or (
            origin.num_cohorts == start.num_cohorts
            and origin.num_users == start.num_users
            and all(
                np.array_equal(getattr(origin, name), getattr(start, name))
                for name in _STATE_FIELDS[:5]
            )
        )

    def pair_of(self, cohort_of: np.ndarray) -> np.ndarray:
        """(J,) pair of each user, given the current map's ``cohort_of``."""
        if self.movers is None:
            return self.mover_pair
        assert self.stayer_pair is not None
        out = self.stayer_pair[cohort_of]
        out[self.movers] = self.mover_pair
        return out


def _dense(key_space: int, count: int) -> bool:
    """Whether ``count`` keys below ``key_space`` are indexed by an array remap.

    A dense key space (at most ``max(2**20, count)``) takes one O(key_space)
    remap instead of an O(count log count) sort or binary search.
    """
    return key_space <= max(1 << 20, count)


def _locate(keys: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The index of each of ``values`` in the sorted distinct ``keys``."""
    key_space = int(keys[-1]) + 1
    if _dense(key_space, values.size):
        remap = np.zeros(key_space, dtype=np.intp)
        remap[keys] = np.arange(keys.size)
        return remap[values]
    return np.searchsorted(keys, values)


def _group(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sorted distinct keys, group index of each element) of ``key`` >= 0."""
    if key.size == 0:
        return key, np.empty(0, dtype=np.intp)
    key_space = int(key.max()) + 1
    if _dense(key_space, key.size):
        present = np.flatnonzero(np.bincount(key, minlength=key_space))
        return present, _locate(present, key)
    return np.unique(key, return_inverse=True)


def _group_pairs(
    before_of: np.ndarray, after_of: np.ndarray, num_after: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(pair of each element, previous column, current column of each pair)."""
    keys, pair_of = _group(before_of.astype(np.int64) * np.int64(num_after) + after_of)
    return pair_of, keys // num_after, keys % num_after


def build_cohorts(
    attachment: np.ndarray,
    workloads: np.ndarray,
    buckets: BucketSpec,
    bucket_of: np.ndarray | None = None,
    previous: CohortMap | None = None,
) -> CohortMap:
    """Cluster one slot's users into (station, bucket) cohorts.

    Cohort order is deterministic — sorted by (station, bucket) composite
    key — so repeated builds over the same observation produce identical
    maps regardless of user order in memory. Stations with no attached
    users simply contribute no cohorts. ``bucket_of`` is
    ``buckets.assign(workloads)``, for callers that assign once per run.

    ``previous`` is the map of the decision this slot follows, and the
    result carries the pairs from its columns (:attr:`CohortMap.pairs`),
    each pair's summed shares taken from its members' workload mass. When
    ``previous`` was built here over the same workloads and buckets, only
    the *movers* (users whose attachment changed) are regrouped: a cohort
    keeps its stayers' count and workload, ``Lambda'_g`` minus the movers
    out, so the map and the pairs cost O(movers + pairs) past the one O(J)
    comparison that finds the movers. Any other map —
    :meth:`FactoredAllocation.zeros`, a snapshot's map of another
    clustering — makes every user a mover. Without ``previous`` the
    pairs are grouped user by user when first asked for
    (:meth:`CohortMap.pairs_from`).
    """
    attachment = np.array(attachment)  # the map keeps its own copy
    lam = np.asarray(workloads, dtype=float)
    if attachment.shape != lam.shape:
        raise ValueError("attachment and workloads must be index-aligned")
    bucket = buckets.assign(lam) if bucket_of is None else np.asarray(bucket_of)
    population = _Population(lam, bucket, buckets.num_buckets)
    if previous is not None and previous.num_users != lam.size:
        raise ValueError("the previous map clusters another number of users")
    lineage = (
        previous is not None
        and previous.population is not None
        and previous.population.matches(population)
    )
    if lineage:
        assert previous is not None and previous.keys is not None
        population = previous.population
        movers = np.flatnonzero(attachment != previous.attachment)
        # The previous slot's deferred phase has built its cohort_of.
        was = previous.cohort_of[movers]
        mover_lam = lam[movers]
        stay = previous.sizes - np.bincount(was, minlength=previous.num_cohorts)
        kept = np.flatnonzero(stay)
        kept_sizes = stay[kept]
        kept_keys = previous.keys[kept]
        kept_mass = (
            previous.workloads[kept]
            - np.bincount(was, weights=mover_lam, minlength=previous.num_cohorts)[kept]
        )
        mover_keys = population.keys(attachment[movers], movers)
    else:
        movers = None
        was = None if previous is None else previous.cohort_of
        mover_lam = lam
        kept = np.empty(0, dtype=np.intp)
        kept_mass = np.empty(0)
        mover_keys = population.keys(attachment)
    distinct, group = _group(mover_keys)
    if kept.size:
        keys = _group(np.concatenate([kept_keys, distinct]))[0]
        mover_cohort = np.searchsorted(keys, distinct)[group]
        stay_cohort = np.searchsorted(keys, kept_keys)
    else:
        keys, mover_cohort, stay_cohort = distinct, group, kept
    num_cohorts = keys.size
    sizes = np.bincount(mover_cohort, minlength=num_cohorts)
    # A bincount over no movers is an int array.
    cohort_workloads = np.bincount(
        mover_cohort, weights=mover_lam, minlength=num_cohorts
    ).astype(float, copy=False)
    if kept.size:
        sizes[stay_cohort] += kept_sizes
        cohort_workloads[stay_cohort] += kept_mass

    pairs = None
    if previous is not None:
        assert was is not None
        mover_pair, before, after = _group_pairs(was, mover_cohort, num_cohorts)
        # Stayers first: pair k < kept.size is cohort kept[k] staying put.
        moved_mass = np.bincount(mover_pair, weights=mover_lam, minlength=before.size)
        mass = np.concatenate([kept_mass, moved_mass])
        before = np.concatenate([kept, before])
        after = np.concatenate([stay_cohort, after])
        stayer_pair = np.full(num_cohorts, -1, dtype=np.intp)
        stayer_pair[stay_cohort] = np.arange(kept.size)
        pairs = CohortPairs(
            before=before,
            after=after,
            before_share=mass / previous.workloads[before],
            after_share=mass / cohort_workloads[after],
            movers=movers,
            mover_pair=mover_pair + kept.size,
            stayer_pair=stayer_pair,
            origin=weakref.ref(previous),
        )
    return CohortMap._built(
        keys,
        sizes,
        cohort_workloads,
        attachment,
        population,
        pairs=pairs,
        cohort_of=mover_cohort if movers is None else None,
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
    """

    y: np.ndarray
    cohorts: CohortMap | None = None

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
        return (self.y.copy(), *(getattr(cohorts, name) for name in _STATE_FIELDS))

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


def _user_pairs(
    previous: FactoredAllocation, current: "CohortMap | FactoredAllocation"
) -> CohortPairs:
    """The pairs from ``previous`` into ``current``'s columns, user by user."""
    pair_of, before, after = pair_map(previous, current)

    def summed(shares: np.ndarray) -> np.ndarray:
        return np.bincount(pair_of, weights=shares, minlength=before.size)

    return CohortPairs(
        before=before,
        after=after,
        before_share=summed(previous.member_share),
        after_share=summed(current.member_share),
        movers=None,
        mover_pair=pair_of,
        stayer_pair=None,
        origin=None if previous.cohorts is None else weakref.ref(previous.cohorts),
    )


def pair_map(
    previous: FactoredAllocation, current: "CohortMap | FactoredAllocation"
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (previous column, current column) pairs users move between, from scratch.

    Returns ``(pair_of, previous_column, current_column)``: the pair index
    of each user, then the two ends of each pair, pairs in (previous,
    current) order. ``current`` is a cohort map or a factored allocation.
    """
    return _group_pairs(previous.cohort_of, current.cohort_of, current.num_cohorts)


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
    if current.cohorts is None:
        pairs = _user_pairs(previous, current)
    else:
        pairs = current.cohorts.pairs_from(previous)
    return (
        previous.y.take(pairs.before, axis=1) * pairs.before_share,
        current.y.take(pairs.after, axis=1) * pairs.after_share,
    )
