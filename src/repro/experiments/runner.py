"""Generic competitive-ratio experiment runner shared by Figures 2-5.

Each figure is a sweep over some axis (test case, workload distribution,
epsilon, mu, user count); every point runs the algorithm roster on several
seeded repetitions of a scenario and aggregates the empirical competitive
ratios (mean +/- std over repetitions, as the paper plots them).

The (point x repetition) grid cells are independent, so the whole sweep
fans out through :class:`repro.parallel.SweepExecutor`; ``workers=1`` (the
default) preserves the original strictly serial execution and, by the
executor's determinism contract, any worker count produces identical
numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..baselines.base import AllocationAlgorithm
from ..parallel import SweepCell, SweepExecutor, comparisons_or_raise
from ..simulation.results import Comparison, aggregate_ratios
from ..simulation.scenario import Scenario
from .report import format_mean_std, format_table


@dataclass(frozen=True)
class RatioPoint:
    """Aggregated ratios at one sweep point.

    Attributes:
        label: the sweep-axis value ("hour 3pm", "eps=0.1", "users=100", ...).
        stats: algorithm name -> (mean ratio, std over repetitions).
        comparisons: the raw per-repetition comparisons.
    """

    label: str
    stats: dict[str, tuple[float, float]]
    comparisons: list[Comparison]

    def mean_ratio(self, algorithm: str) -> float:
        """Mean empirical ratio of one algorithm at this point."""
        return self.stats[algorithm][0]


#: One sweep point's specification: (label, scenario, algorithm roster,
#: base seed). Repetition ``rep`` of a point runs on ``seed + rep``.
SweepCase = tuple[str, Scenario, Sequence[AllocationAlgorithm], int]


def run_ratio_sweep(
    cases: Sequence[SweepCase],
    *,
    repetitions: int,
    workers: int | None = 1,
    keep_schedules: bool = True,
    batch_solves: bool = False,
) -> list[RatioPoint]:
    """Run a whole sweep grid, optionally in parallel.

    Every (case, repetition) pair becomes one executor cell with its own
    deterministic seed, so the grid parallelizes across points *and*
    repetitions while staying bit-for-bit reproducible at any worker count.

    Args:
        cases: the sweep points (label, scenario, algorithms, base seed).
        repetitions: seeded repetitions per point.
        workers: executor processes (1 = serial, None = all CPUs).
        keep_schedules: ``False`` drops each run's per-slot allocations
            after cost accounting (ratios only need the totals), bounding
            memory on long horizons.
        batch_solves: run the cells' per-slot P2 solves as stacked batches
            (:mod:`repro.simulation.batched`); results stay bit-identical.

    Returns:
        One aggregated :class:`RatioPoint` per case, in case order.
    """
    cells = [
        SweepCell(
            key=(index, rep),
            scenario=scenario,
            algorithms=tuple(algorithms),
            seed=seed + rep,
            keep_schedule=keep_schedules,
        )
        for index, (_, scenario, algorithms, seed) in enumerate(cases)
        for rep in range(repetitions)
    ]
    if batch_solves:
        from ..simulation.batched import run_cells_batched

        results = run_cells_batched(cells, workers=workers)
    else:
        results = SweepExecutor(max_workers=workers).run_cells(cells)
    comparisons = comparisons_or_raise(results)
    points = []
    for index, (label, _, _, _) in enumerate(cases):
        # Cells were emitted case-major, so each case's repetitions are a
        # contiguous, ordered block.
        block = comparisons[index * repetitions : (index + 1) * repetitions]
        points.append(
            RatioPoint(label=label, stats=aggregate_ratios(block), comparisons=block)
        )
    return points


def run_ratio_point(
    label: str,
    scenario: Scenario,
    algorithms: list[AllocationAlgorithm],
    *,
    repetitions: int,
    seed: int,
    workers: int | None = 1,
    keep_schedules: bool = True,
    batch_solves: bool = False,
) -> RatioPoint:
    """Run ``repetitions`` seeded instances of a scenario and aggregate."""
    (point,) = run_ratio_sweep(
        [(label, scenario, algorithms, seed)],
        repetitions=repetitions,
        workers=workers,
        keep_schedules=keep_schedules,
        batch_solves=batch_solves,
    )
    return point


def ratio_table(points: list[RatioPoint], *, axis_name: str = "case") -> str:
    """Paper-style table: one row per sweep point, one column per algorithm."""
    if not points:
        return "(no data)"
    algorithms = [name for name in points[0].stats if name != "offline-opt"]
    headers = [axis_name, *algorithms]
    rows = []
    for point in points:
        rows.append(
            [point.label]
            + [format_mean_std(*point.stats[name]) for name in algorithms]
        )
    return format_table(headers, rows)
