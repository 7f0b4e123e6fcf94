"""repro — reproduction of "Online Resource Allocation for Arbitrary User
Mobility in Distributed Edge Clouds" (ICDCS 2017).

Public API quick tour:

* :class:`repro.ProblemInstance` / :class:`repro.CostWeights` — the model.
* :class:`repro.OnlineRegularizedAllocator` — the paper's online algorithm.
* :mod:`repro.baselines` — offline-opt, online-greedy, perf/oper/stat-opt.
* :class:`repro.Scenario` — Section V-A experiment configurations.
* :func:`repro.compare_algorithms` — run and normalize like Figures 2-5.

See README.md for a quickstart and DESIGN.md for the full system inventory.
"""

from ._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".baselines": (
            "OfflineOptimal",
            "OnlineGreedy",
            "OperOpt",
            "PerfOpt",
            "StatOpt",
        ),
        ".core": (
            "AllocationSchedule",
            "CostBreakdown",
            "CostWeights",
            "OnlineRegularizedAllocator",
            "ProblemInstance",
            "RegularizedSubproblem",
            "competitive_ratio_bound",
            "cost_breakdown",
            "total_cost",
        ),
        ".parallel": ("SweepCell", "SweepExecutor"),
        ".simulation": (
            "Comparison",
            "RunResult",
            "Scenario",
            "aggregate_ratios",
            "compare_algorithms",
            "run_algorithm",
        ),
        ".telemetry": (
            "MetricsRegistry",
            "RunRecord",
            "read_manifest",
            "telemetry_session",
            "write_manifest",
        ),
    },
)

__version__ = "1.0.0"
__all__.append("__version__")
