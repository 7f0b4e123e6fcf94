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

from .baselines import (
    OfflineOptimal,
    OnlineGreedy,
    OperOpt,
    PerfOpt,
    StatOpt,
)
from .core import (
    AllocationSchedule,
    CostBreakdown,
    CostWeights,
    OnlineRegularizedAllocator,
    ProblemInstance,
    RegularizedSubproblem,
    competitive_ratio_bound,
    cost_breakdown,
    total_cost,
)
from .parallel import SweepCell, SweepExecutor
from .simulation import (
    Comparison,
    RunResult,
    Scenario,
    aggregate_ratios,
    compare_algorithms,
    run_algorithm,
)
from .telemetry import (
    MetricsRegistry,
    RunRecord,
    read_manifest,
    telemetry_session,
    write_manifest,
)

__version__ = "1.0.0"

__all__ = [
    "AllocationSchedule",
    "Comparison",
    "CostBreakdown",
    "CostWeights",
    "MetricsRegistry",
    "OfflineOptimal",
    "OnlineGreedy",
    "OnlineRegularizedAllocator",
    "OperOpt",
    "PerfOpt",
    "ProblemInstance",
    "RegularizedSubproblem",
    "RunRecord",
    "RunResult",
    "Scenario",
    "StatOpt",
    "SweepCell",
    "SweepExecutor",
    "aggregate_ratios",
    "compare_algorithms",
    "competitive_ratio_bound",
    "cost_breakdown",
    "read_manifest",
    "run_algorithm",
    "telemetry_session",
    "total_cost",
    "write_manifest",
    "__version__",
]
