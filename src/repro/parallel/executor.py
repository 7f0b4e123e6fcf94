"""The sweep executor: fan independent experiment cells across processes.

Design goals (docs/PARALLEL.md):

* **Determinism** — a cell is a pure function of (scenario, algorithms,
  seed); the executor never shares mutable state between cells, so serial
  and parallel execution produce bit-for-bit identical results and the
  output order always matches the input order.
* **Graceful degradation** — ``max_workers=1`` runs inline with no pool;
  platforms where a process pool cannot be created (or where the work does
  not pickle) fall back to the same inline path, announced by a one-time
  ``RuntimeWarning`` and a ``parallel.fallback.inline`` telemetry event so
  degraded fan-out is visible in ``doctor``/``watch``.
* **Structured failure** — a cell that raises is captured as a
  :class:`CellResult` carrying the error string and traceback instead of
  poisoning the whole sweep or hanging the pool.

Cells must be picklable on the pool path: scenarios, problem instances and
the bundled algorithms are all plain dataclasses of arrays, so everything
in this project qualifies.

This module is a generic dependency leaf — it knows nothing about
scenarios or simulations. The simulation-specific cell type lives in
:mod:`repro.simulation.cells` (re-exported here for compatibility); any
object with ``key`` and ``execute()`` works with :meth:`SweepExecutor.run_cells`.
"""

from __future__ import annotations

import os
import time
import traceback
import warnings
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

from ..telemetry import (
    MetricsRegistry,
    TraceContext,
    current_trace,
    get_registry,
    telemetry_enabled,
    thread_registry,
    trace_scope,
    trace_span,
)

if TYPE_CHECKING:  # type-only: the simulation layer builds on this leaf
    from ..simulation.results import Comparison


class SweepError(RuntimeError):
    """Raised when a sweep is asked to deliver results but some cells failed."""


def resolve_workers(workers: int | None) -> int:
    """Normalize a worker-count request (``None``/``0`` = all visible CPUs)."""
    if workers is None or workers == 0:
        return os.cpu_count() or 1
    if workers < 0:
        raise ValueError(f"workers must be positive or None, got {workers}")
    return int(workers)


@dataclass(frozen=True)
class CellResult:
    """Outcome of one cell: a payload or a structured failure, plus timing.

    Attributes:
        key: the cell's identifier (input order is also preserved).
        value: whatever the cell returned (a :class:`Comparison` for
            :class:`SweepCell` work), or ``None`` on failure.
        error: ``"ExcType: message"`` when the cell raised, else ``None``.
        traceback: full formatted traceback of the failure, else ``None``.
        wall_time_s: wall-clock seconds spent inside the cell.
        pid: OS process id that executed the cell (the parent's pid on the
            serial path — useful when checking work really fanned out).
        telemetry: when telemetry was active at dispatch, the picklable
            snapshot of everything the cell recorded (the caller merges
            these deterministically in input order); ``None`` otherwise.
    """

    key: Any
    value: Any
    error: str | None
    traceback: str | None
    wall_time_s: float
    pid: int
    telemetry: dict | None = None

    @property
    def ok(self) -> bool:
        """Whether the cell completed without raising."""
        return self.error is None

    @property
    def comparison(self) -> "Comparison | None":
        """The payload, typed for the common SweepCell case."""
        return self.value


def _execute_one(
    work: Callable[[Any], Any],
    key: Any,
    item: Any,
    telemetry: bool = False,
    trace: "TraceContext | None" = None,
) -> CellResult:
    """Run one unit of work, capturing failures, timing, and telemetry.

    Module-level so the pool can pickle it; shared by the serial path,
    the pool and the batched runner's cell threads, so every path has
    identical failure semantics. When ``telemetry`` is set, the cell runs
    under a *fresh* registry, installed for the current thread only (so
    concurrent cell threads of one process each record into their own),
    whose snapshot rides home on the :class:`CellResult`. When the
    dispatch site minted a ``trace`` context for this cell, it becomes
    the active context for the cell's duration and tags every event the
    cell records with its ``trace_id`` — the dispatch side stamps the
    matching span ids onto the merged cell root, so neither id has to
    travel back home.
    """
    registry = MetricsRegistry() if telemetry else None
    start = time.perf_counter()
    try:
        with ExitStack() as scopes:
            if registry is not None:
                scopes.enter_context(thread_registry(registry))
            if trace is not None:
                scopes.enter_context(trace_scope(trace))
                if registry is not None:
                    scopes.enter_context(
                        registry.context(trace_id=trace.trace_id)
                    )
            value = work(item)
    except Exception as exc:  # noqa: BLE001 - structured capture is the point
        return CellResult(
            key=key,
            value=None,
            error=f"{type(exc).__name__}: {exc}",
            traceback=traceback.format_exc(),
            wall_time_s=time.perf_counter() - start,
            pid=os.getpid(),
            telemetry=registry.snapshot() if registry is not None else None,
        )
    return CellResult(
        key=key,
        value=value,
        error=None,
        traceback=None,
        wall_time_s=time.perf_counter() - start,
        pid=os.getpid(),
        telemetry=registry.snapshot() if registry is not None else None,
    )


def _execute_cell(cell: Any) -> Any:
    """Run one cell object (anything with ``execute()``); pool-picklable."""
    return cell.execute()


def _wrap_cell_spans(
    result: CellResult, trace: "TraceContext | None" = None
) -> dict:
    """The cell's telemetry snapshot with its spans grouped under one root.

    Worker registries are fresh per cell, so their trace trees would merge
    as an undifferentiated flat list of roots. Wrapping them under a
    ``"cell"`` node keyed by the cell id (and stamped with the worker pid
    and wall time) keeps per-cell structure in merged manifests — which is
    what lets ``repro-edge doctor`` attribute spans on parallel runs.
    When the cell was dispatched with a trace context, its ids are stamped
    onto the root here, at merge time — the same context the worker held,
    so the root's ``span_id`` is exactly the ``parent_span_id`` any span
    the cell recorded will reference, and the root's own
    ``parent_span_id`` points at the dispatch span. That is what lets the
    exporter re-link per-worker forests into one tree.
    """
    snap = result.telemetry
    meta: dict = {"cell": result.key, "pid": result.pid}
    if trace is not None:
        meta.update(trace.as_meta())
    root = {
        "name": "cell",
        "duration_ms": result.wall_time_s * 1000.0,
        "children": list(snap.get("spans", ())),
        "meta": meta,
    }
    return {**snap, "spans": [root]}


def dispatch_cells(
    span: str,
    count: int,
    workers: int,
    run: Callable[[bool, Sequence["TraceContext | None"]], list[CellResult]],
) -> list[CellResult]:
    """Run ``count`` cells through ``run`` and fold their telemetry home.

    ``run(telemetry, traces)`` executes the cells (inline, on a pool, or
    as batched threads) and returns one :class:`CellResult` per cell, in
    input order. When tracing is active, a ``span`` dispatch span is
    opened and one child context per cell minted under it, so the whole
    fan-out renders as one connected tree. Per-cell snapshots are then
    merged into the caller's registry in input order — the one fixed
    order every execution path shares — so aggregates are identical at
    any worker count.
    """
    telemetry = telemetry_enabled()
    if telemetry and current_trace() is not None:
        with trace_span(span, cells=count, workers=workers):
            dispatch = current_trace()
            traces = [dispatch.child() for _ in range(count)]
            return _merge_cells(run(telemetry, traces), traces, workers)
    traces = [None] * count
    return _merge_cells(run(telemetry, traces), traces, workers)


def _merge_cells(
    results: list[CellResult],
    traces: Sequence["TraceContext | None"],
    workers: int,
) -> list[CellResult]:
    """Fold each result's telemetry snapshot into the active registry."""
    registry = get_registry()
    if not registry.enabled:
        return results
    registry.counter("sweep.cells").inc(len(results))
    registry.gauge("sweep.workers").set(workers)
    for result, trace in zip(results, traces):
        if result.telemetry is not None:
            # merge_snapshot routes the cell's events through the parent
            # registry's sink, so a streaming manifest receives each
            # worker's stream at merge time — still in input order.
            registry.merge_snapshot(_wrap_cell_spans(result, trace))
        registry.histogram("sweep.cell_wall_s").observe(result.wall_time_s)
    # One flush per sweep: the merged per-worker events become visible to
    # a live watcher as a block once the sweep lands.
    registry.flush()
    return results


_inline_fallback_warned = False


def _note_inline_fallback(exc: Exception, *, cells: int, workers: int) -> None:
    """Make a degraded (inline) fan-out visible instead of silent.

    Every occurrence lands in telemetry as a ``parallel.fallback.inline``
    event plus counter — so ``doctor``/``watch`` surface it on live runs —
    and the first occurrence per process also raises a ``RuntimeWarning``
    for plain scripts with telemetry off. Results are still correct (the
    inline path is the reference semantics); only the speedup is lost.
    """
    global _inline_fallback_warned
    registry = get_registry()
    registry.counter("parallel.fallback.inline").inc()
    registry.event(
        "parallel.fallback.inline",
        error=f"{type(exc).__name__}: {exc}",
        cells=cells,
        workers=workers,
    )
    if not _inline_fallback_warned:
        _inline_fallback_warned = True
        warnings.warn(
            f"parallel fan-out degraded to inline execution "
            f"({type(exc).__name__}: {exc}); results are unaffected but "
            f"the requested {workers} workers are not being used",
            RuntimeWarning,
            stacklevel=3,
        )


@dataclass(frozen=True)
class SweepExecutor:
    """Run independent work items, optionally across a process pool.

    ``max_workers=1`` (the default) is strictly serial — no pool, no
    pickling, no subprocesses — and is the reference semantics the pool
    path must reproduce exactly. ``max_workers=None`` uses every visible
    CPU.

    Attributes:
        max_workers: worker processes (1 = inline serial execution).
    """

    max_workers: int | None = 1

    @property
    def workers(self) -> int:
        """The resolved worker count (``None``/``0`` = all visible CPUs)."""
        return resolve_workers(self.max_workers)

    def map(
        self, work: Callable[[Any], Any], items: Sequence[Any], *, keys: Sequence[Any] | None = None
    ) -> list[CellResult]:
        """Apply ``work`` to every item; results come back in input order.

        Args:
            work: picklable callable (module-level function) applied per item.
            items: the work items.
            keys: optional per-item identifiers (defaults to the indices).

        Returns:
            One :class:`CellResult` per item, failures captured in place.
        """
        if keys is None:
            keys = list(range(len(items)))
        if len(keys) != len(items):
            raise ValueError("keys and items must have the same length")

        def run(telemetry: bool, traces: Sequence["TraceContext | None"]):
            if self.workers <= 1 or len(items) <= 1:
                return [
                    _execute_one(work, key, item, telemetry, trace)
                    for key, item, trace in zip(keys, items, traces)
                ]
            return self._map_pool(work, items, keys, telemetry, traces)

        return dispatch_cells("sweep.map", len(items), self.workers, run)

    def run_cells(self, cells: Iterable[Any]) -> list[CellResult]:
        """Execute grid cells (anything with ``key`` and ``execute()``).

        The standard cell type is
        :class:`repro.simulation.cells.SweepCell`; keys are taken from the
        cells.
        """
        cells = list(cells)
        return self.map(_execute_cell, cells, keys=[cell.key for cell in cells])

    # ----- pool path ----------------------------------------------------------

    def _map_pool(
        self,
        work: Callable[[Any], Any],
        items: Sequence[Any],
        keys: Sequence[Any],
        telemetry: bool = False,
        traces: "Sequence[TraceContext | None] | None" = None,
    ) -> list[CellResult]:
        if traces is None:
            traces = [None] * len(items)
        try:
            with ProcessPoolExecutor(max_workers=min(self.workers, len(items))) as pool:
                futures = [
                    pool.submit(_execute_one, work, key, item, telemetry, trace)
                    for key, item, trace in zip(keys, items, traces)
                ]
                return [future.result() for future in futures]
        except Exception as exc:  # noqa: BLE001
            # Pool creation or transport failed (no fork/spawn support,
            # unpicklable work, broken pool, ...). The cells themselves never
            # raise out of _execute_one, so anything surfacing here is an
            # infrastructure problem: fall back to the serial reference path,
            # which needs none of that machinery.
            _note_inline_fallback(exc, cells=len(items), workers=self.workers)
            return [
                _execute_one(work, key, item, telemetry, trace)
                for key, item, trace in zip(keys, items, traces)
            ]


def comparisons_or_raise(results: Sequence[CellResult]) -> "list[Comparison]":
    """Unwrap cell payloads, raising :class:`SweepError` if any cell failed.

    The error message lists every failed cell's key and error (first
    traceback included) so a single bad cell in a big sweep is diagnosable.
    """
    failed = [result for result in results if not result.ok]
    if failed:
        summary = "; ".join(f"{r.key!r}: {r.error}" for r in failed[:5])
        if len(failed) > 5:
            summary += f"; ... ({len(failed) - 5} more)"
        raise SweepError(
            f"{len(failed)}/{len(results)} sweep cells failed: {summary}\n"
            f"first failure traceback:\n{failed[0].traceback}"
        )
    return [result.value for result in results]
