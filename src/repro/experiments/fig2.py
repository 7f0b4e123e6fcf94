"""Figure 2: empirical competitive ratios on taxi mobility, power workloads.

The paper selects six hours (3pm-8pm, Feb 12 2014) of the Rome taxi traces
as six independent test cases of 60 one-minute slots, runs every algorithm
five times, and normalizes by offline-opt. Our substitute taxi generator
(DESIGN.md, "Substitutions") provides the trace; each "hour" is an
independent seeded draw of the same scenario, mirroring the paper's
independent test cases.

Expected shape: atomistic algorithms (perf-opt / oper-opt / stat-opt) are
clearly worst, online-greedy in between, online-approx near-optimal
(ratio ~ 1.1). The atomistic rows double as the paper's "up to 4x vs
static approaches" claim.
"""

from __future__ import annotations

from ..simulation.scenario import Scenario
from .runner import RatioPoint, ratio_table, run_ratio_sweep
from .scale import ExperimentScale, aggregation_config, fig2_scenario
from .settings import all_paper_algorithms

#: The six hourly test cases of the paper.
HOURS = ("3pm", "4pm", "5pm", "6pm", "7pm", "8pm")


def run_fig2(
    scale: ExperimentScale | None = None, *, hours: tuple[str, ...] = HOURS
) -> list[RatioPoint]:
    """One RatioPoint per hourly test case (independent seeded draws)."""
    scale = scale or ExperimentScale()
    scenario = fig2_scenario(scale)
    algorithms = all_paper_algorithms(scale.eps, aggregation_config(scale))
    cases = [
        (hour, scenario, algorithms, scale.seed + 1000 * case)
        for case, hour in enumerate(hours)
    ]
    return run_ratio_sweep(
        cases,
        repetitions=scale.repetitions,
        workers=scale.workers,
        keep_schedules=scale.keep_schedules,
        batch_solves=scale.batch_solves,
    )


def run_fig2_continuous_day(
    scale: ExperimentScale | None = None, *, hours: tuple[str, ...] = HOURS
) -> list[RatioPoint]:
    """Figure 2 the paper's way: slice one continuous day into hourly cases.

    The paper takes six *consecutive* hours (3pm-8pm of Feb 12, 2014) from
    one day of taxi traces, so the hourly test cases share the same taxis,
    prices generator, and capacity plan. This variant builds one long
    instance spanning all the hours (capacities provisioned from the whole
    day's attachment frequencies, as in Section V-A) and evaluates each
    hour as an independent test case via slicing.
    """
    from ..simulation.engine import compare_algorithms
    from ..simulation.results import aggregate_ratios
    from .runner import RatioPoint

    scale = scale or ExperimentScale()
    scenario = fig2_scenario(scale)
    algorithms = all_paper_algorithms(scale.eps, aggregation_config(scale))
    points: list[RatioPoint] = []
    per_hour_comparisons: list[list] = [[] for _ in hours]
    for rep in range(scale.repetitions):
        day_scenario = Scenario(
            num_users=scale.num_users,
            num_slots=scale.num_slots * len(hours),
            workload_distribution=scenario.workload_distribution,
        )
        day = day_scenario.build(seed=scale.seed + rep)
        for case in range(len(hours)):
            hour_instance = day.slice_slots(
                case * scale.num_slots, (case + 1) * scale.num_slots
            )
            per_hour_comparisons[case].append(
                compare_algorithms(algorithms, hour_instance)
            )
    for case, hour in enumerate(hours):
        comparisons = per_hour_comparisons[case]
        points.append(
            RatioPoint(
                label=hour,
                stats=aggregate_ratios(comparisons),
                comparisons=comparisons,
            )
        )
    return points


def fig2_report(points: list[RatioPoint]) -> str:
    """The Figure 2 table plus the headline claims it supports."""
    lines = [
        "Figure 2 - empirical competitive ratio (taxi mobility, power workload)",
        ratio_table(points, axis_name="hour"),
        "",
    ]
    approx = [p.mean_ratio("online-approx") for p in points]
    greedy = [p.mean_ratio("online-greedy") for p in points]
    atomistic_worst = [
        max(p.mean_ratio(a) for a in ("perf-opt", "oper-opt", "stat-opt"))
        for p in points
    ]
    lines.append(f"online-approx ratio: mean {sum(approx)/len(approx):.3f}, "
                 f"max {max(approx):.3f} (paper: ~1.1)")
    improvement = max(
        (g - a) / g for g, a in zip(greedy, approx)
    )
    lines.append(
        f"best improvement over online-greedy: {100 * improvement:.1f}% "
        "(paper: up to 60%)"
    )
    static_factor = max(w / a for w, a in zip(atomistic_worst, approx))
    lines.append(
        f"worst atomistic/static cost vs online-approx: {static_factor:.2f}x "
        "(paper: up to 4x)"
    )
    return "\n".join(lines)
