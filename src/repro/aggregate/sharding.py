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

* ``workers`` (process count) NEVER changes the solution. With one, the
  shards run in-process as one lockstep batched-IPM call; with more,
  :class:`repro.parallel.SweepExecutor` fans them across processes and
  merges in input order. Both are bit-identical to one-lane solves
  (tests/aggregate); only a deadline is split differently.
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
from ..parallel.executor import SweepExecutor, resolve_workers
from ..solvers.base import SolveBudget
from ..solvers.batched import solve_batch
from ..solvers.interior_point import InteriorPointBackend

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

    Shared by the process path (:func:`_solve_shard`) and the lockstep
    path (:func:`_solve_lockstep`), so both solve literally the same
    program under the same budget.
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
) -> tuple[np.ndarray, int, bool, np.ndarray]:
    """Post-process one shard's solver result into the merge tuple."""
    shape = (subproblem.num_clouds, subproblem.num_users)
    return (
        np.asarray(result.x, dtype=float).reshape(shape),
        int(result.iterations),
        bool(result.partial),
        np.asarray(result.duals["capacity"], dtype=float),
    )


def _solve_shard(task: ShardTask) -> tuple[np.ndarray, int, bool, np.ndarray]:
    """Solve one shard; module-level so process pools can pickle it."""
    subproblem, program = _shard_program(task)
    result = InteriorPointBackend().solve(program, tol=task.tol)
    return _finish_shard(subproblem, result)


def _solve_lockstep(tasks: list[ShardTask]) -> list:
    """Each shard's merge tuple (or the exception its solve raised) from one
    in-process :func:`solve_batch` call: bit-identical to one-lane solves,
    with each lane's solver telemetry emitted in input order."""
    built = [_shard_program(task) for task in tasks]
    outcomes = solve_batch(
        [program for _, program in built], tol=[task.tol for task in tasks]
    )
    return [
        outcome if isinstance(outcome, Exception) else _finish_shard(sub, outcome)
        for (sub, _), outcome in zip(built, outcomes)
    ]


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
    shared_clock: bool = False,
) -> list[ShardTask]:
    """Partition a reduced subproblem into contiguous shard tasks.

    A supplied ``budget`` is divided evenly across the shards (the shard
    solves of one slot share the slot's deadline), except the deadline of
    ``shared_clock`` lanes, which run side by side on one clock.
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
            deadline_s = budget.deadline_s / (1 if shared_clock else len(blocks))
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
) -> ShardedSolve:
    """Solve the reduced P2, optionally split into shards across workers.

    With one worker the shard solves run in this process as **one
    lockstep batched-IPM call** (:func:`repro.solvers.batched.solve_batch`)
    whose lanes share the slot's deadline; with more, they fan across
    processes with ``1/K`` of it each. Results are bit-identical
    (docs/PERFORMANCE.md).

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
    pooled = resolve_workers(workers) > 1
    tasks = make_shard_tasks(
        subproblem,
        shards,
        tol=tol,
        capacity_duals=capacity_duals,
        slicing=slicing,
        budget=budget,
        shared_clock=not pooled,
    )
    if pooled:
        results = SweepExecutor(max_workers=workers).map(_solve_shard, tasks)
        values = [r.value for r in results]
        failed = [(k, r.error, r.traceback) for k, r in enumerate(results) if not r.ok]
    else:
        values = _solve_lockstep(tasks)
        failed = [
            (k, f"{type(v).__name__}: {v}", "".join(traceback.format_exception(v)))
            for k, v in enumerate(values)
            if isinstance(v, Exception)
        ]
    if failed:
        summary = "; ".join(f"shard-{k}: {error}" for k, error, _ in failed)
        raise RuntimeError(
            f"{len(failed)}/{len(values)} shard solves failed: {summary}\n"
            f"first failure traceback:\n{failed[0][2]}"
        )
    weights = np.array([float(task.workloads.sum()) for task in tasks], dtype=float)
    weights /= max(weights.sum(), 1e-300)
    combined_duals = np.zeros_like(values[0][3])
    for weight, value in zip(weights, values):
        combined_duals += weight * value[3]
    return ShardedSolve(
        x=np.concatenate([value[0] for value in values], axis=1),
        iterations=sum(value[1] for value in values),
        partial_solves=sum(value[2] for value in values),
        capacity_duals=combined_duals,
    )
