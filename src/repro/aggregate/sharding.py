"""Shard the reduced P2 across cohort blocks, solved in one lockstep call.

A shard is a contiguous block of cohort columns solved as its own small
P2 with a slice of every cloud's capacity. The slice blends the
workload-proportional share ``C_i * Lambda_shard / Lambda_total`` toward
the split implied by the *previous slot's* joint decision, gated per
cloud by the previous capacity duals: clouds whose capacity was binding
(large dual) follow the optimizer's realized usage split, clouds with
slack keep the proportional slice. The blend weight is capped so every
shard keeps a strict share of the joint headroom — feasibility is
preserved by construction, and with no history (slot 0, or no duals)
the slices are exactly proportional. See docs/SCALING.md.

A slot's shard P2s are solved in this process as the lanes of one
:func:`repro.solvers.batched.solve_batch` call, bit-identical to one-lane
solves. The shard count changes the solution *boundedly*: splitting
decouples the reconfiguration regularizer across blocks and pins each
block's capacity slice. ``shards=1`` is exactly the unsharded solve —
the capacity scale factor is literally ``1.0``.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass

import numpy as np

from ..core.subproblem import RegularizedSubproblem
from ..solvers.base import ConvexProgram, SolveBudget
from ..solvers.batched import solve_batch

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
class ShardedSolve:
    """Outcome of :func:`solve_sharded`.

    Besides the assembled solution, carries what the streaming controller
    needs: how many shard solves were budget-truncated, and the combined
    capacity duals that seed the *next* slot's price-aware slices.
    """

    x: np.ndarray
    iterations: int
    partial_solves: int = 0
    capacity_duals: np.ndarray | None = None


def shard_capacity_shares(
    subproblem: RegularizedSubproblem,
    blocks: list[np.ndarray],
    *,
    capacity_duals: np.ndarray | None = None,
) -> np.ndarray:
    """Per-(cloud, shard) capacity share matrix ``t`` with ``sum_k t = 1``.

    Without ``capacity_duals`` every cloud gets the block's workload
    fraction (proportional slices). With them, the shares blend, per
    cloud *i*, toward the previous decision's realized usage split
    ``u_{i,k} / u_i`` with weight
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
    workloads = np.asarray(subproblem.workloads, dtype=float)
    capacities = np.asarray(subproblem.capacities, dtype=float)
    total = float(workloads.sum())
    shares = np.array(
        [float(workloads[block].sum()) / total for block in blocks]
    )
    num_clouds = capacities.shape[0]
    t = np.broadcast_to(shares[None, :], (num_clouds, len(blocks))).copy()
    if len(blocks) == 1 or capacity_duals is None:
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
    capacity_duals: np.ndarray | None = None,
    budget: SolveBudget | None = None,
) -> list[ConvexProgram]:
    """Partition a reduced subproblem into contiguous shard programs.

    Returns one program per shard, in column order; each carries its
    shard subproblem as ``structure``.
    The lanes of one slot run side by side on one clock, so each keeps the
    whole ``budget`` deadline; an iteration cap is divided evenly
    (``max_iterations // K`` per lane).
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
        subproblem, blocks, capacity_duals=capacity_duals
    )
    lane_budget = None
    if budget is not None and (
        budget.deadline_s is not None or budget.max_iterations is not None
    ):
        lane_budget = SolveBudget(
            deadline_s=budget.deadline_s,
            max_iterations=None
            if budget.max_iterations is None
            else max(1, budget.max_iterations // len(blocks)),
        )
    programs = []
    for k, block in enumerate(blocks):
        shard = RegularizedSubproblem(
            static_prices=static[:, block],
            reconfig_prices=np.asarray(subproblem.reconfig_prices, dtype=float),
            migration_prices=np.asarray(subproblem.migration_prices, dtype=float),
            capacities=capacities * shares[:, k],
            workloads=workloads[block],
            x_prev=x_prev[:, block],
            eps1=subproblem.eps1,
            eps2=eps2[block],
        )
        programs.append(ConvexProgram(structure=shard, budget=lane_budget))
    return programs


def solve_sharded(
    subproblem: RegularizedSubproblem,
    *,
    shards: int = 1,
    tol: float = 1e-8,
    capacity_duals: np.ndarray | None = None,
    budget: SolveBudget | None = None,
) -> ShardedSolve:
    """Solve the reduced P2, optionally split into shards.

    The shard solves run in this process as **one lockstep batched-IPM
    call** (:func:`repro.solvers.batched.solve_batch`) whose lanes share
    the slot's deadline; each lane is bit-identical to a one-lane solve
    of its program (docs/PERFORMANCE.md).

    Returns:
        A :class:`ShardedSolve` whose ``x`` is the (I, G) solution
        assembled from the shards in input order. ``capacity_duals``
        (workload-weighted across shards) feed the next slot's price-aware
        slices; ``partial_solves`` counts partial (budget-truncated or
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
    programs = make_shard_tasks(
        subproblem, shards, capacity_duals=capacity_duals, budget=budget
    )
    shard_subs = [program.structure for program in programs]
    outcomes = solve_batch(programs, tol=tol)
    failed = [
        (k, outcome)
        for k, outcome in enumerate(outcomes)
        if isinstance(outcome, Exception)
    ]
    if failed:
        summary = "; ".join(
            f"shard-{k}: {type(error).__name__}: {error}" for k, error in failed
        )
        raise RuntimeError(
            f"{len(failed)}/{len(outcomes)} shard solves failed: {summary}\n"
            "first failure traceback:\n"
            + "".join(traceback.format_exception(failed[0][1]))
        )
    weights = np.array(
        [float(shard.workloads.sum()) for shard in shard_subs], dtype=float
    )
    weights /= max(weights.sum(), 1e-300)
    xs = []
    combined_duals = np.zeros(subproblem.num_clouds)
    for weight, shard, result in zip(weights, shard_subs, outcomes):
        xs.append(
            np.asarray(result.x, dtype=float).reshape(
                shard.num_clouds, shard.num_users
            )
        )
        combined_duals += weight * np.asarray(result.duals["capacity"], dtype=float)
    return ShardedSolve(
        x=np.concatenate(xs, axis=1),
        iterations=sum(int(result.iterations) for result in outcomes),
        partial_solves=sum(bool(result.partial) for result in outcomes),
        capacity_duals=combined_duals,
    )
