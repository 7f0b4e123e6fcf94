"""The Figure 2 sweep under test, run in its own process.

Imports the program and builds the algorithm roster, prints ``ready``, then
reads one JSON command per line from standard input and answers each with
one JSON line:

* ``{"seed": S, "workers": W, "trace": false}`` runs the Figure 2 sweep (all
  six hours x the default repetitions, batched solves on W processes) and
  returns its wall time, each cell's wall time and worker, its ratio table
  and each online-approx ratio with its Theorem 2 bound. With
  ``"trace": true`` the sweep's solver layers are wrapped and their counts
  come back too.

When its input closes it prints ``bye {...}`` with the peak RSS of itself
and of its largest pool worker. Run from the repository root::

    python3 perfbench/sweep_proc.py
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from repro.core.bounds import competitive_ratio_bound  # noqa: E402
from repro.experiments import fig2  # noqa: E402
from repro.experiments.settings import (  # noqa: E402
    ExperimentScale,
    all_paper_algorithms,
)
from repro.parallel import SweepError  # noqa: E402
from repro.telemetry import MetricsRegistry, telemetry_session  # noqa: E402

ROSTER = all_paper_algorithms()


class _CellTimes:
    """Wraps ``run_cells_batched`` to keep each cell's wall time and worker."""

    def __init__(self) -> None:
        from repro.simulation import batched

        self.cells: list[tuple[float, int]] = []
        original = batched.run_cells_batched

        def wrapper(cells, **kwargs):
            results = original(cells, **kwargs)
            self.cells.extend((r.wall_time_s, r.pid) for r in results)
            return results

        batched.run_cells_batched = wrapper


def _sweep(seed: int, workers: int, trace: bool, cell_times: _CellTimes) -> dict:
    scale = ExperimentScale(
        seed=seed, workers=workers, batch_solves=True, keep_schedules=False
    )
    registry = MetricsRegistry(max_events=0)
    cell_times.cells = []
    start = time.perf_counter()
    try:
        if trace:
            with telemetry_session(registry):
                points = fig2.run_fig2(scale)
        else:
            points = fig2.run_fig2(scale)
    except SweepError as exc:
        return {"error": str(exc)[:500]}
    wall_s = time.perf_counter() - start
    scenario = fig2.fig2_scenario(scale)
    cells = []
    for case, point in enumerate(points):
        for rep, comparison in enumerate(point.comparisons):
            instance = scenario.build(seed=scale.seed + 1000 * case + rep)
            cells.append(
                {
                    "ratio": comparison.ratio("online-approx"),
                    "bound": competitive_ratio_bound(instance, scale.eps, scale.eps),
                }
            )
    reply = {
        "wall_s": wall_s,
        "table": {point.label: point.stats for point in points},
        "cells": cells,
        "cell_times": cell_times.cells,
    }
    if trace:
        reply["counters"] = registry.snapshot()["counters"]
    return reply


def main() -> int:
    cell_times = _CellTimes()
    traced = False
    print("ready", flush=True)
    for line in sys.stdin:
        if not line.strip():
            continue
        command = json.loads(line)
        trace = bool(command["trace"])
        if trace and not traced:
            import tracing

            tracing.install_counters()
            traced = True
        reply = _sweep(int(command["seed"]), int(command["workers"]), trace, cell_times)
        print(json.dumps(reply), flush=True)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print("bye " + json.dumps({"maxrss_kb": own + workers}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
