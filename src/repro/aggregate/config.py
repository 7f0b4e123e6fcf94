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
            the decision boundedly (each shard gets a price-aware capacity
            slice and its own regularizer coupling); ``shards=1`` is
            exactly the unsharded solve. A slot's shards are solved
            in-process as one lockstep batched-IPM call.
        workers: must be 1 — shard solves run in-process. Kept only so
            existing ``AggregationConfig(..., workers=1)`` callers work.
    """

    lambda_buckets: int | None = 8
    shards: int = 1
    workers: int = 1

    def __post_init__(self) -> None:
        if self.lambda_buckets is not None and self.lambda_buckets < 0:
            raise ValueError("lambda_buckets must be nonnegative or None")
        if self.shards < 1:
            raise ValueError("shards must be at least 1")
        if self.workers != 1:
            raise ValueError(
                f"workers must be 1, got {self.workers!r}: shard solves run "
                "in-process as one lockstep call per slot"
            )
