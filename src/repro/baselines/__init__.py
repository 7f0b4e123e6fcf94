"""Comparison algorithms: the atomistic and holistic groups of Section V-B."""

from .atomistic import OperOpt, PerfOpt, StatOpt, solve_static_slot
from .base import AllocationAlgorithm, weighted_static_prices, windowed_p0_lp
from .greedy import GreedyController, OnlineGreedy
from .lookahead import RecedingHorizon
from .offline import OfflineOptimal

__all__ = [
    "AllocationAlgorithm",
    "GreedyController",
    "OfflineOptimal",
    "OnlineGreedy",
    "OperOpt",
    "PerfOpt",
    "RecedingHorizon",
    "StatOpt",
    "solve_static_slot",
    "weighted_static_prices",
    "windowed_p0_lp",
]
