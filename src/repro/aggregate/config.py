"""Configuration of the user-aggregation layer (dependency leaf).

This module must stay import-light: :mod:`repro.core.regularization` and
the CLI reference :class:`AggregationConfig` without pulling in the solver
or simulation machinery behind the rest of :mod:`repro.aggregate`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class AggregationConfig:
    """How to cluster users into cohorts and shard the reduced solves.

    Attributes:
        lambda_buckets: number of geometric workload buckets per station.
            ``None`` or ``0`` buckets users by *exact* workload value
            (zero within-cohort spread, zero aggregation cost error).
        shards: how many contiguous cohort blocks the reduced subproblem
            is partitioned into (1 = one joint solve). Sharding changes
            the decision boundedly (each shard gets a workload-
            proportional capacity slice and its own regularizer coupling);
            ``shards=1`` is exactly the unsharded solve.
        workers: processes for the shard solves (``None``/0 = all
            visible CPUs). With one, a slot's shards are solved in-process
            as one lockstep batched-IPM call; with more, across processes.
            Worker count NEVER changes an unbudgeted solution — both paths
            are bit-identical to one-lane solves, merged in input order.
        shard_slicing: how shard capacity slices are cut — ``"price"``
            (default) blends toward the previous slot's realized usage
            split, gated by the previous capacity duals;
            ``"proportional"`` keeps the workload-proportional slices.
            Irrelevant at ``shards=1``. See docs/SCALING.md.
    """

    lambda_buckets: int | None = 8
    shards: int = 1
    workers: int | None = 1
    shard_slicing: str = "price"

    def __post_init__(self) -> None:
        if self.lambda_buckets is not None and self.lambda_buckets < 0:
            raise ValueError("lambda_buckets must be nonnegative or None")
        if self.shards < 1:
            raise ValueError("shards must be at least 1")
        if self.workers is not None and self.workers < 0:
            raise ValueError("workers must be nonnegative or None")
        if self.shard_slicing not in ("price", "proportional"):
            raise ValueError(
                "shard_slicing must be 'price' or 'proportional', "
                f"got {self.shard_slicing!r}"
            )
