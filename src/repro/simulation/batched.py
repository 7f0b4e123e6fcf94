"""Batched sweep execution: lockstep P2 solves across concurrent cells.

A ratio sweep's cells spend nearly all of their wall-clock inside per-slot
P2 solves that are individually tiny, so Python dispatch overhead around
the NumPy arithmetic dominates. This runner executes a group of cells as
*threads* whose regularized allocators route their structured-IPM solves
through one :class:`~repro.solvers.batched.BatchCoordinator`: whenever
every live cell is blocked on (or done with) its current solve, the whole
pending set runs as **one** stacked interior-point solve
(:func:`repro.solvers.batched.solve_batch`).

Everything else about a cell is untouched — feasibility repair, the
degradation ladder, telemetry tagging — because the only swap is the
allocator's *backend*: each cell gets a private
``DeferringBackend(coordinator)`` that defers into the shared batch and
whose failure semantics are exactly the sequential ones (a failed lane
raises in the requesting thread). Results are therefore bit-identical to
the serial sweep, pinned by ``tests/simulation/test_batched_sweep.py``.

Each cell thread runs through the executor's own cell runner
(:func:`repro.parallel.executor._execute_one`), which gives it a fresh
thread-local registry. With ``workers > 1`` the cells are split into
contiguous groups, one group per worker process (fanned out via the
executor's pool machinery); each group runs its own in-process lockstep
rendezvous. Trace contexts are minted and per-cell telemetry snapshots
merged by :func:`repro.parallel.executor.dispatch_cells`, exactly as for
:meth:`repro.parallel.SweepExecutor.map`, so metric aggregates match the
classic paths at any worker count.
"""

from __future__ import annotations

import copy
import dataclasses
import os
import threading
from typing import Any, Iterable, Sequence

from ..core.regularization import OnlineRegularizedAllocator
from ..parallel.executor import (
    CellResult,
    SweepError,
    SweepExecutor,
    _execute_cell,
    _execute_one,
    dispatch_cells,
    resolve_workers,
)
from ..solvers.batched import BatchCoordinator, DeferringBackend
from ..telemetry import TraceContext


def _prepare_cell(cell: Any, coordinator: BatchCoordinator) -> Any:
    """A copy of ``cell`` whose regularized allocators defer into the batch.

    Each cell gets *deep copies* of its allocators — the same isolation the
    process pool provides by pickling — so concurrent cells never share
    mutable allocator state. Algorithms that never call a backend (the
    baselines, and aggregated allocators, which solve through the shard
    path) never enter the rendezvous as solvers, only as participants that
    eventually finish.
    """
    algorithms = []
    swapped = False
    for algorithm in cell.algorithms:
        if isinstance(algorithm, OnlineRegularizedAllocator):
            clone = copy.deepcopy(algorithm)
            clone.backend = DeferringBackend(coordinator)
            algorithms.append(clone)
            swapped = True
        else:
            algorithms.append(algorithm)
    if not swapped:
        return cell
    return dataclasses.replace(cell, algorithms=tuple(algorithms))


def _run_group(
    cells: Sequence[Any],
    telemetry: bool,
    traces: Sequence[TraceContext | None],
) -> list[CellResult]:
    """Execute one group of cells as lockstep threads; results in order."""
    coordinator = BatchCoordinator(total=len(cells))
    prepared = [_prepare_cell(cell, coordinator) for cell in cells]
    results: list[CellResult | None] = [None] * len(cells)

    def run(index: int) -> None:
        try:
            results[index] = _execute_one(
                _execute_cell,
                cells[index].key,
                prepared[index],
                telemetry,
                traces[index],
            )
        finally:
            # Unconditionally: a participant that never finishes would
            # stall the rendezvous for every other cell in the group.
            coordinator.finish()

    threads = [
        threading.Thread(
            target=run, args=(index,), name=f"batched-cell-{cells[index].key}"
        )
        for index in range(len(cells))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    final: list[CellResult] = []
    for index, result in enumerate(results):
        if result is None:  # thread died outside _execute_one
            result = CellResult(
                key=cells[index].key,
                value=None,
                error="RuntimeError: batched cell thread produced no result",
                traceback=None,
                wall_time_s=0.0,
                pid=os.getpid(),
            )
        final.append(result)
    return final


def _run_group_item(item: "tuple[Any, ...]") -> list[CellResult]:
    """Module-level pool target: one worker process runs one cell group.

    ``item`` is ``(cells, telemetry, traces)`` — the per-cell trace
    contexts ride the pickled item alongside the cells.
    """
    return _run_group(*item)


def _split_groups(cells: list[Any], workers: int) -> list[list[Any]]:
    """Contiguous, near-equal groups (at most ``workers`` of them)."""
    count = min(workers, len(cells))
    size, extra = divmod(len(cells), count)
    groups = []
    cursor = 0
    for index in range(count):
        width = size + (1 if index < extra else 0)
        groups.append(cells[cursor : cursor + width])
        cursor += width
    return groups


def run_cells_batched(
    cells: Iterable[Any],
    *,
    workers: int | None = 1,
) -> list[CellResult]:
    """Run sweep cells with lockstep-batched P2 solves.

    Drop-in alternative to ``SweepExecutor.run_cells``: same cell types,
    same :class:`CellResult` contract (failures structured per cell,
    output order = input order), same telemetry aggregation, bit-identical
    results — but the regularized allocators' structured-IPM solves execute
    as stacked batches instead of one at a time.

    Args:
        cells: anything with ``key``, ``algorithms``, and ``execute()``
            (normally :class:`repro.simulation.cells.SweepCell`).
        workers: worker processes; 1 runs one in-process thread group,
            ``None``/``0`` uses all visible CPUs. Each worker receives one
            contiguous group of cells and batches within it.
    """
    cells = list(cells)
    if not cells:
        return []
    resolved = resolve_workers(workers)

    def run(telemetry: bool, traces: Sequence[TraceContext | None]):
        if resolved <= 1 or len(cells) <= 1:
            return _run_group(cells, telemetry, traces)
        groups = _split_groups(cells, resolved)
        # _split_groups is deterministic in the input length, so slicing
        # the trace list with it keeps contexts aligned with their cells.
        trace_groups = _split_groups(list(traces), resolved)
        items = list(zip(groups, [telemetry] * len(groups), trace_groups))
        executor = SweepExecutor(max_workers=len(groups))
        group_results = executor._map_pool(  # noqa: SLF001
            _run_group_item, items, list(range(len(groups)))
        )
        results = []
        for group_result in group_results:
            if not group_result.ok:
                raise SweepError(
                    f"batched cell group {group_result.key} failed: "
                    f"{group_result.error}\n{group_result.traceback}"
                )
            results.extend(group_result.value)
        return results

    return dispatch_cells("sweep.batched", len(cells), resolved, run)
