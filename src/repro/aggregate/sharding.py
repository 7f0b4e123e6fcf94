"""Shard the reduced P2 across cohort blocks and worker processes.

A shard is a contiguous block of cohort columns solved as its own small
P2 with a slice of every cloud's capacity. Two slicing policies:

* ``"proportional"`` — ``C_i * Lambda_shard / Lambda_total``: each
  shard inherits the joint problem's overprovisioning headroom, so every
  shard is strictly feasible whenever the joint problem is, but shards
  cannot *concentrate* onto cheap clouds.
* ``"price"`` (default) — blend the proportional slice toward the split
  implied by the *previous slot's* joint decision, gated per cloud by
  the previous capacity duals: clouds whose capacity was binding (large
  dual) follow the optimizer's realized usage split, clouds with slack
  keep the proportional slice. The blend weight is capped at
  ``0.9 * (1 - Lambda/sum(C))`` so every shard keeps a strict share of
  the joint headroom — feasibility is preserved by construction, and
  with no history (slot 0, or no duals) the policy degrades to exactly
  the proportional slice. See docs/SCALING.md.

Two distinct knobs, two distinct contracts:

* ``workers`` (process count) NEVER changes the solution. Each shard is a
  pure function of its task; :class:`repro.parallel.SweepExecutor` merges
  results in input order, so any worker count is bit-for-bit identical at
  a fixed shard count (property-tested in tests/aggregate).
* ``shards`` (block count) changes the solution *boundedly*: splitting
  decouples the reconfiguration regularizer across blocks and pins each
  block's capacity slice. ``shards=1`` is exactly the unsharded solve —
  the capacity scale factor is literally ``1.0`` under either policy.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass

import numpy as np

from ..core.subproblem import RegularizedSubproblem
from ..parallel.executor import SweepExecutor
from ..solvers.base import SolveBudget
from ..solvers.batched import solve_batch
from ..solvers.interior_point import InteriorPointBackend
from ..telemetry import MetricsRegistry, get_registry

#: Per-cloud ceiling on the price-aware blend weight: even a fully
#: binding cloud keeps 5% of its proportional slice, so no shard's
#: capacity on any cloud can be zeroed out by a degenerate usage split.
_PRICE_BLEND_CAP = 0.95

#: Every price-aware shard must keep at least this fraction of the joint
#: problem's relative headroom: with ``op = sum(C)/Lambda``, shard k's
#: slice total is required to be >= ``(1 + 0.1 (op - 1)) Lambda_k``. The
#: blend is scaled back globally (deterministically) until the worst
#: shard meets it, so feasibility never depends on what the duals say.
_PRICE_HEADROOM_KEEP = 0.1


@dataclass(frozen=True)
class ShardTask:
    """One shard's solve inputs — a plain bundle of arrays, pool-picklable."""

    static_prices: np.ndarray
    reconfig_prices: np.ndarray
    migration_prices: np.ndarray
    capacities: np.ndarray
    workloads: np.ndarray
    eps2: np.ndarray
    x_prev: np.ndarray
    eps1: float
    tol: float
    #: Optional per-shard solve budget (live serving; docs/SERVING.md).
    deadline_s: float | None = None
    max_iterations: int | None = None


@dataclass(frozen=True)
class ShardedSolve:
    """Outcome of :func:`solve_sharded`.

    Iterates as ``(x, iterations)`` for backward compatibility with the
    original two-tuple return, while carrying the extras the streaming
    controller needs: how many shard solves were budget-truncated, and
    the combined capacity duals that seed the *next* slot's price-aware
    slices.
    """

    x: np.ndarray
    iterations: int
    partial_solves: int = 0
    capacity_duals: np.ndarray | None = None

    def __iter__(self):
        yield self.x
        yield self.iterations


def _shard_program(task: ShardTask):
    """Build the shard's subproblem and program exactly as the solve does.

    Shared by the sequential path (:func:`_solve_shard`) and the batched
    path (:func:`_solve_shards_batched`) so both solve literally the same
    program object shape — same budget.
    """
    subproblem = RegularizedSubproblem(
        static_prices=task.static_prices,
        reconfig_prices=task.reconfig_prices,
        migration_prices=task.migration_prices,
        capacities=task.capacities,
        workloads=task.workloads,
        x_prev=task.x_prev,
        eps1=task.eps1,
        eps2=task.eps2,
    )
    program = subproblem.build_program()
    if task.deadline_s is not None or task.max_iterations is not None:
        program.budget = SolveBudget(
            deadline_s=task.deadline_s, max_iterations=task.max_iterations
        )
    return subproblem, program


def _finish_shard(
    subproblem: RegularizedSubproblem, result
) -> tuple[np.ndarray, int, bool, np.ndarray | None]:
    """Post-process one shard's solver result into the merge tuple."""
    shape = (subproblem.num_clouds, subproblem.num_users)
    capacity_duals = result.duals.get("capacity")
    if capacity_duals is not None:
        capacity_duals = np.asarray(capacity_duals, dtype=float)
        if capacity_duals.shape != (shape[0],):
            capacity_duals = None
    return (
        np.asarray(result.x, dtype=float).reshape(shape),
        int(result.iterations),
        bool(result.partial),
        capacity_duals,
    )


def _solve_shard(task: ShardTask) -> tuple[np.ndarray, int, bool, np.ndarray | None]:
    """Solve one shard; module-level so process pools can pickle it."""
    subproblem, program = _shard_program(task)
    result = InteriorPointBackend().solve(program, tol=task.tol)
    return _finish_shard(subproblem, result)


def _solve_shards_batched(
    tasks: list[ShardTask],
) -> list[tuple[object, str | None, str | None]]:
    """Solve every shard through one stacked batched-IPM call.

    Replicates the sequential path's observable behavior exactly:

    * The stacked solve (:func:`repro.solvers.batched.solve_batch`) is
      bit-identical to per-shard :class:`InteriorPointBackend` solves.
    * Per-shard solver telemetry is buffered in throwaway registries and
      merged into the active registry **in shard order**, so counters and
      the event stream match a serial loop.

    Returns one ``(value, error, traceback)`` triple per task, in order,
    mirroring the executor's structured-failure capture.
    """
    built = [_shard_program(task) for task in tasks]
    lane_registries = [MetricsRegistry() for _ in tasks]
    outcomes = solve_batch(
        [program for _, program in built],
        tol=[task.tol for task in tasks],
        registries=lane_registries,
    )
    telemetry = get_registry()
    results: list[tuple[object, str | None, str | None]] = []
    for (subproblem, _), outcome, lane_registry in zip(
        built, outcomes, lane_registries
    ):
        telemetry.merge_snapshot(lane_registry.snapshot())
        try:
            if isinstance(outcome, Exception):
                raise outcome
            results.append((_finish_shard(subproblem, outcome), None, None))
        except Exception as exc:  # noqa: BLE001 - mirrors executor capture
            results.append(
                (None, f"{type(exc).__name__}: {exc}", traceback.format_exc())
            )
    return results


def shard_capacity_shares(
    subproblem: RegularizedSubproblem,
    blocks: list[np.ndarray],
    *,
    slicing: str = "price",
    capacity_duals: np.ndarray | None = None,
) -> np.ndarray:
    """Per-(cloud, shard) capacity share matrix ``t`` with ``sum_k t = 1``.

    ``"proportional"`` gives every cloud the block's workload fraction.
    ``"price"`` blends, per cloud *i*, toward the previous decision's
    realized usage split ``u_{i,k} / u_i`` with weight
    ``b_i = 0.95 * dual_i / (dual_i + mean(dual))`` — binding clouds
    (large previous capacity dual) follow the optimizer's split, slack
    clouds stay proportional. Feasibility is then enforced *exactly*:
    shard totals are linear in a global blend scale ``theta``, so the
    blend is scaled back just enough that the worst shard keeps
    ``(1 + 0.1 (op - 1))`` times its workload, where ``op`` is the joint
    overprovision ``sum(C)/Lambda`` — every shard stays strictly
    feasible whenever the joint problem is overprovisioned, regardless
    of what the duals or the previous usage look like.
    """
    if slicing not in ("price", "proportional"):
        raise ValueError(
            f"unknown shard slicing {slicing!r}; known: price, proportional"
        )
    workloads = np.asarray(subproblem.workloads, dtype=float)
    capacities = np.asarray(subproblem.capacities, dtype=float)
    total = float(workloads.sum())
    shares = np.array(
        [float(workloads[block].sum()) / total for block in blocks]
    )
    num_clouds = capacities.shape[0]
    t = np.broadcast_to(shares[None, :], (num_clouds, len(blocks))).copy()
    if slicing == "proportional" or len(blocks) == 1 or capacity_duals is None:
        return t
    duals = np.maximum(np.asarray(capacity_duals, dtype=float), 0.0)
    mean_dual = float(duals.mean())
    if mean_dual <= 0.0:
        return t
    capacity_sum = float(capacities.sum())
    overprovision = capacity_sum / total
    if overprovision <= 1.0:
        return t
    x_prev = np.asarray(subproblem.x_prev, dtype=float)
    usage = np.stack(
        [x_prev[:, block].sum(axis=1) for block in blocks], axis=1
    )  # (I, K)
    cloud_usage = usage.sum(axis=1)  # (I,)
    with np.errstate(invalid="ignore", divide="ignore"):
        usage_split = np.where(
            cloud_usage[:, None] > 0.0,
            usage / np.where(cloud_usage[:, None] > 0.0, cloud_usage[:, None], 1.0),
            t,
        )
    blend = _PRICE_BLEND_CAP * duals / (duals + mean_dual)  # (I,), in [0, 0.95)
    blended = (1.0 - blend)[:, None] * t + blend[:, None] * usage_split
    # Exact feasibility control: shard k's slice total is linear in a
    # global scale theta on the blend, going from the proportional total
    # (theta=0, which has the full joint headroom) to the blended total
    # (theta=1). Scale back to the largest theta keeping every shard at
    # or above its target headroom.
    target = (1.0 + _PRICE_HEADROOM_KEEP * (overprovision - 1.0)) * (
        shares * total
    )  # (K,)
    proportional_totals = shares * capacity_sum
    blended_totals = capacities @ blended
    theta = 1.0
    short = blended_totals < target
    if np.any(short):
        deltas = proportional_totals[short] - blended_totals[short]
        margins = proportional_totals[short] - target[short]
        # deltas > 0 wherever short (proportional totals always exceed
        # the target when overprovisioned); margins >= 0 likewise.
        theta = float(np.min(margins / deltas))
        theta = min(max(theta, 0.0), 1.0)
    if theta >= 1.0:
        return blended
    return (1.0 - theta) * t + theta * blended


def make_shard_tasks(
    subproblem: RegularizedSubproblem,
    shards: int,
    *,
    tol: float = 1e-8,
    capacity_duals: np.ndarray | None = None,
    slicing: str = "price",
    budget: SolveBudget | None = None,
) -> list[ShardTask]:
    """Partition a reduced subproblem into contiguous shard tasks.

    A supplied ``budget`` is divided evenly across the shards (the shard
    solves of one slot share the slot's deadline).
    """
    num_cols = subproblem.num_users
    shards = max(1, min(int(shards), num_cols))
    workloads = np.asarray(subproblem.workloads, dtype=float)
    capacities = np.asarray(subproblem.capacities, dtype=float)
    static = np.asarray(subproblem.static_prices, dtype=float)
    x_prev = np.asarray(subproblem.x_prev, dtype=float)
    eps2 = np.broadcast_to(
        np.asarray(subproblem.eps2, dtype=float), (num_cols,)
    )
    blocks = np.array_split(np.arange(num_cols), shards)
    shares = shard_capacity_shares(
        subproblem, blocks, slicing=slicing, capacity_duals=capacity_duals
    )
    deadline_s = None
    max_iterations = None
    if budget is not None:
        if budget.deadline_s is not None:
            deadline_s = budget.deadline_s / len(blocks)
        if budget.max_iterations is not None:
            max_iterations = max(1, budget.max_iterations // len(blocks))
    tasks = []
    for k, block in enumerate(blocks):
        tasks.append(
            ShardTask(
                static_prices=static[:, block],
                reconfig_prices=np.asarray(subproblem.reconfig_prices, dtype=float),
                migration_prices=np.asarray(
                    subproblem.migration_prices, dtype=float
                ),
                capacities=capacities * shares[:, k],
                workloads=workloads[block],
                eps2=np.array(eps2[block]),
                x_prev=x_prev[:, block],
                eps1=subproblem.eps1,
                tol=tol,
                deadline_s=deadline_s,
                max_iterations=max_iterations,
            )
        )
    return tasks


def solve_sharded(
    subproblem: RegularizedSubproblem,
    *,
    shards: int = 1,
    workers: int | None = 1,
    tol: float = 1e-8,
    capacity_duals: np.ndarray | None = None,
    slicing: str = "price",
    budget: SolveBudget | None = None,
    batch_solves: bool = False,
) -> ShardedSolve:
    """Solve the reduced P2, optionally split into shards across workers.

    With ``batch_solves=True`` the shard solves run as **one stacked
    batched-IPM call** in-process instead of fanning across worker
    processes — bit-identical results, one interior-point iteration
    driving every shard (docs/PERFORMANCE.md).

    Returns:
        A :class:`ShardedSolve` — unpackable as ``(x, iterations)`` —
        whose ``x`` is the (I, G) solution assembled from the shards in
        input order. ``capacity_duals`` (workload-weighted across
        shards) feed the next slot's price-aware slices;
        ``partial_solves`` counts partial (budget-truncated or
        unconverged) shards.

    Raises:
        ValueError: when the slot has no strict interior (total capacity
            at most total workload), as the direct path's solve does.
        RuntimeError: when any shard's solve failed (the message carries
            every failed shard's error, first traceback included).
    """
    # Shard slices keep the joint headroom, so this one check stands in
    # for every shard's own start-point check.
    if float(np.sum(subproblem.capacities)) <= float(np.sum(subproblem.workloads)):
        raise ValueError(
            "no strictly feasible point: total capacity must exceed total workload"
        )
    tasks = make_shard_tasks(
        subproblem,
        shards,
        tol=tol,
        capacity_duals=capacity_duals,
        slicing=slicing,
        budget=budget,
    )
    if batch_solves:
        triples = _solve_shards_batched(tasks)
        failed_triples = [
            (f"shard-{k}", error, tb)
            for k, (_, error, tb) in enumerate(triples)
            if error is not None
        ]
        if failed_triples:
            summary = "; ".join(f"{key}: {error}" for key, error, _ in failed_triples)
            raise RuntimeError(
                f"{len(failed_triples)}/{len(triples)} shard solves failed: "
                f"{summary}\n"
                f"first failure traceback:\n{failed_triples[0][2]}"
            )
        values = [value for value, _, _ in triples]
    else:
        executor = SweepExecutor(max_workers=workers)
        results = executor.map(
            _solve_shard, tasks, keys=[f"shard-{k}" for k in range(len(tasks))]
        )
        failed = [r for r in results if not r.ok]
        if failed:
            summary = "; ".join(f"{r.key}: {r.error}" for r in failed)
            raise RuntimeError(
                f"{len(failed)}/{len(results)} shard solves failed: {summary}\n"
                f"first failure traceback:\n{failed[0].traceback}"
            )
        values = [r.value for r in results]
    blocks = [value[0] for value in values]
    iterations = sum(value[1] for value in values)
    partial_solves = sum(1 for value in values if value[2])
    shard_duals = [value[3] for value in values]
    combined_duals: np.ndarray | None = None
    if all(d is not None for d in shard_duals):
        weights = np.array(
            [float(task.workloads.sum()) for task in tasks], dtype=float
        )
        weights /= max(weights.sum(), 1e-300)
        combined_duals = np.zeros_like(shard_duals[0])
        for weight, duals in zip(weights, shard_duals):
            combined_duals += weight * duals
    return ShardedSolve(
        x=np.concatenate(blocks, axis=1),
        iterations=iterations,
        partial_solves=partial_solves,
        capacity_duals=combined_duals,
    )
