"""Result serialization: persist run results and comparisons as JSON.

Schedules are large (T x I x J); by default only the cost accounting is
persisted, with an opt-in for the full allocation trajectory.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..simulation.results import Comparison, RunResult


def run_result_to_dict(result: RunResult, *, include_schedule: bool = False) -> dict:
    """JSON-serializable summary of a run."""
    data = {
        "algorithm": result.algorithm,
        "costs": result.breakdown.totals(),
        "per_slot_total": result.breakdown.total_per_slot.tolist(),
        "wall_time_s": result.wall_time_s,
        "feasibility": {
            "demand": result.feasibility.demand_violation,
            "capacity": result.feasibility.capacity_violation,
            "negativity": result.feasibility.negativity_violation,
        },
    }
    if include_schedule:
        data["schedule"] = result.schedule.x.tolist()
    return data


def comparison_to_dict(comparison: Comparison, *, include_schedules: bool = False) -> dict:
    """JSON-serializable summary of a comparison (ratios + per-run costs)."""
    return {
        "baseline": comparison.baseline,
        "baseline_cost": comparison.baseline_cost,
        "ratios": comparison.ratios(),
        "runs": {
            name: run_result_to_dict(run, include_schedule=include_schedules)
            for name, run in comparison.results.items()
        },
    }


def save_comparison_json(
    comparison: Comparison, path: str | Path, *, include_schedules: bool = False
) -> None:
    """Write a comparison summary to disk."""
    Path(path).write_text(
        json.dumps(comparison_to_dict(comparison, include_schedules=include_schedules))
    )
