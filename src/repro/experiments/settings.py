"""Shared experiment defaults (paper Section V-A) and the algorithm roster.

The scale and its defaults live in :mod:`repro.experiments.scale`, which
does not import the roster; they are re-exported here.
"""

from __future__ import annotations

from ..baselines import OfflineOptimal, OnlineGreedy, OperOpt, PerfOpt, StatOpt
from ..baselines.base import AllocationAlgorithm
from ..core.regularization import OnlineRegularizedAllocator
from .scale import (
    DEFAULT_EPS,
    DEFAULT_NUM_SLOTS,
    DEFAULT_NUM_USERS,
    DEFAULT_REPETITIONS,
    PAPER_NUM_CLOUDS,
    PAPER_NUM_SLOTS,
    PAPER_NUM_USERS,
    PAPER_REPETITIONS,
    ExperimentScale,
    aggregation_config,
)

__all__ = [
    "DEFAULT_EPS",
    "DEFAULT_NUM_SLOTS",
    "DEFAULT_NUM_USERS",
    "DEFAULT_REPETITIONS",
    "PAPER_NUM_CLOUDS",
    "PAPER_NUM_SLOTS",
    "PAPER_NUM_USERS",
    "PAPER_REPETITIONS",
    "ExperimentScale",
    "aggregation_config",
    "all_paper_algorithms",
    "atomistic_algorithms",
    "holistic_algorithms",
]


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
