"""Comparison algorithms: the atomistic and holistic groups of Section V-B."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".atomistic": ("OperOpt", "PerfOpt", "StatOpt", "solve_static_slot"),
        ".base": ("AllocationAlgorithm", "weighted_static_prices", "windowed_p0_lp"),
        ".greedy": ("GreedyController", "OnlineGreedy"),
        ".lookahead": ("RecedingHorizon",),
        ".offline": ("OfflineOptimal",),
    },
)
