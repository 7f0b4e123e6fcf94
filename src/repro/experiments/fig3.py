"""Figure 3: competitive ratios under uniform and normal workloads.

Same setting as Figure 2 with the user-workload distribution swapped; the
paper reports that online-approx "preserves similar properties ... under
any of the workload distributions" (near-optimal, up to 70% better than
online-greedy) "and performs even slightly better under uniform workloads".
"""

from __future__ import annotations

from ..simulation.scenario import Scenario
from .runner import RatioPoint, ratio_table, run_ratio_sweep
from .settings import ExperimentScale, aggregation_config, all_paper_algorithms

#: The distributions of Figure 3 (Figure 2 covers "power").
DISTRIBUTIONS = ("uniform", "normal")


def run_fig3(
    scale: ExperimentScale | None = None,
    *,
    distributions: tuple[str, ...] = DISTRIBUTIONS,
) -> list[RatioPoint]:
    """One RatioPoint per workload distribution."""
    scale = scale or ExperimentScale()
    algorithms = all_paper_algorithms(scale.eps, aggregation_config(scale))
    cases = [
        (
            distribution,
            Scenario(
                num_users=scale.num_users,
                num_slots=scale.num_slots,
                workload_distribution=distribution,
            ),
            algorithms,
            scale.seed + 1000 * k,
        )
        for k, distribution in enumerate(distributions)
    ]
    return run_ratio_sweep(
        cases,
        repetitions=scale.repetitions,
        workers=scale.workers,
        keep_schedules=scale.keep_schedules,
        batch_solves=scale.batch_solves,
    )


def fig3_report(points: list[RatioPoint]) -> str:
    """The Figure 3 table plus the improvement-over-greedy headline."""
    lines = [
        "Figure 3 - competitive ratio under uniform / normal workloads",
        ratio_table(points, axis_name="workload"),
        "",
    ]
    for point in points:
        approx = point.mean_ratio("online-approx")
        greedy = point.mean_ratio("online-greedy")
        lines.append(
            f"{point.label}: online-approx {approx:.3f}, improvement over "
            f"greedy {100 * (greedy - approx) / greedy:.1f}% (paper: up to 70%)"
        )
    return "\n".join(lines)
