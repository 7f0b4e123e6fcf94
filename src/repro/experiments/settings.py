"""Shared experiment defaults (paper Section V-A) and the algorithm roster.

The paper's full scale is 15 edge clouds, roughly 300 users, 60 one-minute
slots per test case, 5 repetitions. The offline LP and the per-slot convex
programs are solved exactly at any scale, so the experiment drivers accept
``num_users``/``num_slots``/``repetitions`` overrides; the defaults here
are a laptop-friendly scale that preserves every qualitative effect (see
EXPERIMENTS.md for the committed numbers and their parameters).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..baselines import OfflineOptimal, OnlineGreedy, OperOpt, PerfOpt, StatOpt
from ..baselines.base import AllocationAlgorithm
from ..core.regularization import OnlineRegularizedAllocator

#: The paper's evaluation scale.
PAPER_NUM_CLOUDS = 15
PAPER_NUM_USERS = 300
PAPER_NUM_SLOTS = 60
PAPER_REPETITIONS = 5

#: Laptop-scale defaults used by the committed benchmarks.
DEFAULT_NUM_USERS = 24
DEFAULT_NUM_SLOTS = 12
DEFAULT_REPETITIONS = 3

#: Default regularization parameter (Figure 4 sweeps it over [1e-3, 1e3]).
DEFAULT_EPS = 1.0


@dataclass(frozen=True)
class ExperimentScale:
    """How big to run an experiment driver.

    ``workers`` controls how many processes the sweep fans its
    (point x repetition) grid cells across (1 = the original serial path,
    0/None = every visible CPU); the numbers are identical at any setting.
    ``keep_schedules=False`` drops per-slot allocations right after cost
    accounting — competitive ratios only need cost totals, so long-horizon
    sweeps can run with bounded memory.
    """

    num_users: int = DEFAULT_NUM_USERS
    num_slots: int = DEFAULT_NUM_SLOTS
    repetitions: int = DEFAULT_REPETITIONS
    seed: int = 2017
    eps: float = DEFAULT_EPS
    workers: int | None = 1
    keep_schedules: bool = True
    #: Solve online-approx over (station, workload-bucket) cohorts instead
    #: of per-user columns (docs/SCALING.md); baselines are unaffected.
    aggregate: bool = False
    lambda_buckets: int | None = 8
    #: Stack concurrent cells' per-slot P2 solves into lockstep batched
    #: interior-point iterations (docs/PERFORMANCE.md); results are bit-identical.
    batch_solves: bool = False

    @classmethod
    def paper(cls) -> "ExperimentScale":
        """The paper's full evaluation scale (minutes-to-hours of runtime)."""
        return cls(
            num_users=PAPER_NUM_USERS,
            num_slots=PAPER_NUM_SLOTS,
            repetitions=PAPER_REPETITIONS,
        )


def aggregation_config(scale: ExperimentScale):
    """The scale's :class:`repro.aggregate.AggregationConfig`, or ``None``."""
    if not scale.aggregate:
        return None
    from ..aggregate.config import AggregationConfig

    return AggregationConfig(lambda_buckets=scale.lambda_buckets)


def holistic_algorithms(
    eps: float = DEFAULT_EPS, aggregation=None
) -> list[AllocationAlgorithm]:
    """offline-opt, online-greedy, online-approx (Section V-B, holistic group)."""
    return [
        OfflineOptimal(),
        OnlineGreedy(),
        OnlineRegularizedAllocator(eps1=eps, eps2=eps, aggregation=aggregation),
    ]


def atomistic_algorithms() -> list[AllocationAlgorithm]:
    """perf-opt, oper-opt, stat-opt (Section V-B, atomistic group)."""
    return [PerfOpt(), OperOpt(), StatOpt()]


def all_paper_algorithms(
    eps: float = DEFAULT_EPS, aggregation=None
) -> list[AllocationAlgorithm]:
    """Both groups, as compared in Figure 2."""
    return atomistic_algorithms() + holistic_algorithms(eps, aggregation)
