"""The structured barrier kernel: one lockstep solve over stacked P2 lanes.

This module holds the repo's only interior-point implementation. A solve of
B same-shape P2 instances ("lanes") stacks them into contiguous
``(B, I, J)`` arrays and runs **one** lockstep barrier iteration over all of
them: every NumPy call advances B solves, and the Woodbury systems become a
single batched ``np.linalg.solve`` over a ``(B, I+J, I+J)`` stack. At fig2
scale each Newton step is a handful of microsecond-sized NumPy calls, so
stacking amortizes the Python dispatch that dominates a lone solve.
:class:`repro.solvers.interior_point.InteriorPointBackend` is the B = 1 case
of the same kernel; :func:`solve_batch` is the stacked entry point.

The hard invariant is **lane independence**: a lane's floats — solution,
objective, iteration count, duals, partial flag, failure — do not depend on
its batch-mates, on the batch size, or on when finished lanes are compacted
away. A lane solved in a batch is therefore bit-identical to the same
program solved alone through ``InteriorPointBackend`` (pinned by
``tests/solvers/test_batched.py``). The reductions this relies on:

* last-axis sums (``(B,I,J).sum(axis=2)``) use NumPy's pairwise summation
  per contiguous row — the same per lane for any B;
* non-last-axis sums (``sum(axis=1)``) accumulate sequentially in index
  order within each lane;
* full-lane sums reduce the raveled lane (``reshape(B, -1).sum(axis=1)``),
  one row per lane;
* masked minima are order-insensitive, so ``where(...)+min`` never mixes
  lanes;
* the batched ``np.linalg.solve`` runs the same LAPACK ``gesv`` on each
  stacked matrix.

Instances converge at different speeds; per-instance **convergence masks**
drop finished lanes from the stack (compaction by fancy indexing), so late
stragglers do not pay for the whole batch. Mixed shapes are handled by
grouping: one lockstep solve per distinct ``(I, J)``.

See docs/PERFORMANCE.md for the stacking layout and the measured wins.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..telemetry import TraceContext, current_trace, get_registry, phase
from .base import ConvexProgram, SolverError, SolverResult

#: Fraction-to-boundary rule: never step further than this share of the
#: distance to the nearest constraint boundary.
_BOUNDARY_FRACTION = 0.99
#: Multiplicative decrease of the barrier parameter between outer iterations.
_MU_DECAY = 0.2
#: Newton steps allowed per barrier parameter before mu is decreased anyway.
_MAX_NEWTON_PER_MU = 80
#: Outer (barrier-parameter) iterations before a solve is declared failed.
_MAX_OUTER = 60
#: Barrier parameter discount applied to warm starts: with x0 near the new
#: optimum the early high-mu centering passes are wasted work, so start the
#: schedule ~4 outer iterations further down (0.2**4 = 1.6e-3). Newton with
#: the Armijo line search is globally convergent on the barrier objective,
#: so a poor warm start costs extra Newton steps, never correctness.
_WARM_MU_DISCOUNT = 1.6e-3
#: Armijo sufficient-decrease constant and backtracking factor.
_ARMIJO_C = 1e-4
_BACKTRACK = 0.5

#: Backend name reported on every structured-IPM result, whether it came
#: from a one-lane :class:`InteriorPointBackend` solve or a stacked
#: :func:`solve_batch` call — the floats are the same either way, so
#: downstream consumers (results, certificates) must not be able to tell
#: them apart; the ``solver.batched.*`` counters record stacked calls.
BATCHED_BACKEND_NAME = "structured-ipm"


# ----- the lockstep group solve ----------------------------------------------


class _Lane:
    """Per-instance bookkeeping that lives outside the stacked arrays."""

    __slots__ = (
        "program",
        "sub",
        "tol",
        "registry",
        "warm",
        "budget",
        "trace",
        "trace_ctx",
        "outcome",
        "final",
    )

    def __init__(self, program, sub, tol, registry, trace_ctx=None):
        self.program = program
        self.sub = sub
        self.tol = tol
        self.registry = registry
        self.warm = False
        self.budget = program.budget
        self.trace: list[dict] | None = [] if registry.enabled else None
        # The distributed-trace context of the *submitting* cell (captured
        # at submit time), not of whichever thread runs the flush — so the
        # lane's deferred telemetry stays attributed to its originator.
        self.trace_ctx: TraceContext | None = trace_ctx
        self.outcome: SolverResult | Exception | None = None
        # Telemetry for the finished solve, emitted by solve_batch() in
        # *input* order once every group is done — lanes retire in
        # convergence order, and emitting at retirement would permute the
        # event stream relative to solving the programs one at a time.
        self.final: dict | None = None

    def emit_telemetry(self) -> None:
        if self.final is None:
            return
        final = self.final
        telemetry = self.registry
        telemetry.counter("solver.ipm.solves").inc()
        telemetry.counter("solver.iterations").inc(final["iterations"])
        telemetry.histogram("solver.ipm.iterations").observe(
            final["iterations"]
        )
        if self.warm:
            telemetry.counter("solver.ipm.warm_start_hits").inc()
        if final["partial"]:
            telemetry.counter("solver.ipm.budget_exhausted").inc()
        if self.trace is not None:
            linkage = {}
            if self.trace_ctx is not None:
                linkage = {
                    "trace_id": self.trace_ctx.trace_id,
                    "parent_span_id": self.trace_ctx.span_id,
                }
            telemetry.event(
                "solver.ipm.trace",
                backend=final["backend"],
                iterations=final["iterations"],
                warm=self.warm,
                mu_final=final["mu"],
                gap_target=final["gap_target"],
                trace=self.trace,
                **linkage,
            )


class _GroupSolve:
    """One lockstep barrier solve over same-shape instances.

    ``lanes`` holds the lanes still iterating, and every stacked array is
    compacted to them whenever some retire, so finished instances stop
    costing anything.
    """

    def __init__(self, lanes: list[_Lane], *, name: str = BATCHED_BACKEND_NAME):
        self.lanes = lanes
        self.name = name
        sub = lanes[0].sub
        self.num_clouds = sub.num_clouds
        self.num_users = sub.num_users
        self.n = self.num_clouds * self.num_users
        self.num_constraints = self.n + self.num_users + self.num_clouds
        self._budget_start = time.perf_counter()

    # -- stacked constants (built once per group) -----------------------------

    def _stack_constants(self, lanes: list[_Lane]) -> None:
        subs = [lane.sub for lane in lanes]
        self.prices = np.stack(
            [np.asarray(s.static_prices, dtype=float) for s in subs]
        )
        # creg/bmig replicate the objective's own per-call expressions; they
        # are pure functions of the (immutable) subproblem data, so hoisting
        # them out of the loop changes nothing.
        self.creg = np.stack(
            [np.asarray(s.reconfig_prices, dtype=float) / s.eta for s in subs]
        )
        self.bmig = np.stack(
            [
                np.asarray(s.migration_prices, dtype=float)[:, None]
                / s.tau[None, :]
                for s in subs
            ]
        )
        self.eps1 = np.array([float(s.eps1) for s in subs])
        self.eps2 = np.stack(
            [
                np.broadcast_to(
                    np.asarray(s.eps2, dtype=float), (self.num_users,)
                ).astype(float)
                for s in subs
            ]
        )[:, None, :]
        self.x_prev = np.stack([np.asarray(s.x_prev, dtype=float) for s in subs])
        self.prev_totals = self.x_prev.sum(axis=2)
        self.prev_shifted = self.prev_totals + self.eps1[:, None]
        self.prev_mig = self.x_prev + self.eps2
        self.workloads = np.stack(
            [np.asarray(s.workloads, dtype=float) for s in subs]
        )
        self.capacities = np.stack(
            [np.asarray(s.capacities, dtype=float) for s in subs]
        )

    def _take(self, keep: np.ndarray) -> None:
        """Compact every stacked array to the kept lane positions."""
        for attr in (
            "prices",
            "creg",
            "bmig",
            "eps1",
            "eps2",
            "x_prev",
            "prev_totals",
            "prev_shifted",
            "prev_mig",
            "workloads",
            "capacities",
            "x",
            "mu",
            "gap_target",
            "iterations",
            "newton_count",
            "outer_count",
            "last_decrement",
            "partial",
        ):
            setattr(self, attr, getattr(self, attr)[keep])

    # -- stacked barrier arithmetic -------------------------------------------

    def _slacks(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        demand = x.sum(axis=1) - self.workloads
        capacity = self.capacities - x.sum(axis=2)
        return demand, capacity

    def _objective(self, x: np.ndarray) -> np.ndarray:
        """Stacked P2 objective, one value per lane.

        Matches ``RegularizedSubproblem.objective`` bit for bit.
        """
        batch = x.shape[0]
        total = (self.prices * x).reshape(batch, -1).sum(axis=1)
        cloud_totals = x.sum(axis=2)
        shifted = np.maximum(cloud_totals + self.eps1[:, None], 1e-12)
        total = total + (
            self.creg
            * (shifted * np.log(shifted / self.prev_shifted) - cloud_totals)
        ).sum(axis=1)
        xs = np.maximum(x + self.eps2, 1e-12)
        total = total + (
            self.bmig * (xs * np.log(xs / self.prev_mig) - x)
        ).reshape(batch, -1).sum(axis=1)
        return total

    def _barrier_value(self, x: np.ndarray, mu: np.ndarray) -> np.ndarray:
        batch = x.shape[0]
        demand, capacity = self._slacks(x)
        feasible = (
            (x.reshape(batch, -1).min(axis=1) > 0)
            & (demand.min(axis=1) > 0)
            & (capacity.min(axis=1) > 0)
        )
        with np.errstate(all="ignore"):
            value = self._objective(x)
            barrier = (
                np.log(x).reshape(batch, -1).sum(axis=1)
                + np.log(demand).sum(axis=1)
                + np.log(capacity).sum(axis=1)
            )
            value = value - mu * barrier
        return np.where(feasible, value, np.inf)

    def _barrier_gradient(self, x: np.ndarray, mu: np.ndarray) -> np.ndarray:
        demand, capacity = self._slacks(x)
        cloud_totals = x.sum(axis=2)
        shifted = np.maximum(cloud_totals + self.eps1[:, None], 1e-12)
        grad = self.prices + (
            self.creg * np.log(shifted / self.prev_shifted)
        )[:, :, None]
        grad = grad + self.bmig * np.log(
            np.maximum(x + self.eps2, 1e-12) / self.prev_mig
        )
        mu3 = mu[:, None, None]
        grad = grad - mu3 / x
        grad = grad - (mu[:, None] / demand)[:, None, :]
        grad = grad + (mu[:, None] / capacity)[:, :, None]
        return grad

    def _hessian_factors(
        self, x: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        diag = self.bmig / np.maximum(x + self.eps2, 1e-12)
        cloud_totals = x.sum(axis=2)
        cloud_scale = self.creg / np.maximum(
            cloud_totals + self.eps1[:, None], 1e-12
        )
        return diag, cloud_scale

    def _newton_direction(
        self, x: np.ndarray, grad: np.ndarray, mu: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """(dx, singular_mask): stacked SMW solve, lanes flagged on failure."""
        batch = x.shape[0]
        demand, capacity = self._slacks(x)
        f_diag, cloud_scale = self._hessian_factors(x)
        mu3 = mu[:, None, None]
        d = f_diag + mu3 / x**2
        dinv = 1.0 / d
        cloud_w = cloud_scale + mu[:, None] / capacity**2
        demand_w = mu[:, None] / demand**2
        row_sum = dinv.sum(axis=2)
        col_sum = dinv.sum(axis=1)
        nc, nu = self.num_clouds, self.num_users
        clouds = np.arange(nc)
        users = np.arange(nc, nc + nu)
        matrix = np.zeros((batch, nc + nu, nc + nu))
        matrix[:, clouds, clouds] = row_sum + 1.0 / cloud_w
        matrix[:, users, users] = col_sum + 1.0 / demand_w
        matrix[:, :nc, nc:] = dinv
        matrix[:, nc:, :nc] = dinv.transpose(0, 2, 1)
        dg = dinv * grad
        rhs = np.concatenate([dg.sum(axis=2), dg.sum(axis=1)], axis=1)
        singular = np.zeros(batch, dtype=bool)
        try:
            # The explicit trailing axis keeps NumPy >= 2 in "stack of
            # column vectors" mode: nrhs=1 gesv on each lane, the same
            # LAPACK call for any batch size.
            z = np.linalg.solve(matrix, rhs[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            # One singular lane poisons the whole gufunc call; redo the
            # stack lane by lane (same LAPACK routine on the same memory,
            # so surviving lanes get identical floats) and flag the bad
            # ones — they fail exactly as they would alone.
            z = np.zeros_like(rhs)
            for k in range(batch):
                try:
                    z[k] = np.linalg.solve(matrix[k], rhs[k])
                except np.linalg.LinAlgError:
                    singular[k] = True
        uz = z[:, :nc, None] + z[:, None, nc:]
        return -(dinv * (grad - uz)), singular

    def _max_step(self, x: np.ndarray, dx: np.ndarray) -> np.ndarray:
        batch = x.shape[0]
        alpha = np.full(batch, 1.0 / _BOUNDARY_FRACTION)
        with np.errstate(all="ignore"):
            neg = dx < 0
            ratios = np.where(neg, x / np.where(neg, -dx, 1.0), np.inf)
            alpha = np.minimum(alpha, ratios.reshape(batch, -1).min(axis=1))
            demand, capacity = self._slacks(x)
            d_demand = dx.sum(axis=1)
            neg = d_demand < 0
            ratios = np.where(neg, demand / np.where(neg, -d_demand, 1.0), np.inf)
            alpha = np.minimum(alpha, ratios.min(axis=1))
            d_capacity = -dx.sum(axis=2)
            neg = d_capacity < 0
            ratios = np.where(
                neg, capacity / np.where(neg, -d_capacity, 1.0), np.inf
            )
            alpha = np.minimum(alpha, ratios.min(axis=1))
        return _BOUNDARY_FRACTION * alpha

    # -- setup ----------------------------------------------------------------

    def _setup(self) -> None:
        """Per-lane start points and barrier schedules.

        An infeasible warm start falls back to the canonical strictly
        interior point, which then no longer justifies the discounted
        barrier schedule; any error here fails only its own lane.
        """
        ready: list[_Lane] = []
        starts: list[np.ndarray] = []
        mus: list[float] = []
        gaps: list[float] = []
        shape = (self.num_clouds, self.num_users)
        for lane in self.lanes:
            try:
                program, sub = lane.program, lane.sub
                warm_requested = (
                    bool(program.warm_start) and program.x0 is not None
                )
                warm = bool(program.warm_start)
                x = None
                if program.x0 is not None:
                    x = np.asarray(program.x0, dtype=float).reshape(shape)
                    if not self._strictly_feasible_one(sub, x):
                        x = None
                else:
                    warm = False
                if x is None:
                    warm = False
                    x = sub.interior_point().reshape(shape)
                    if not self._strictly_feasible_one(sub, x):
                        raise SolverError(
                            f"{self.name}: no strictly feasible start"
                        )
                scale = max(1.0, abs(program.objective(x.ravel())))
                gap_target = max(lane.tol, 1e-10) * scale
                mu = max(
                    scale / self.num_constraints,
                    10.0 * gap_target / self.num_constraints,
                )
                if warm:
                    mu = max(
                        mu * _WARM_MU_DISCOUNT,
                        10.0 * gap_target / self.num_constraints,
                    )
                if warm_requested and not warm:
                    # Frequent restarts mean the warm-start blending
                    # upstream is not doing its job.
                    lane.registry.counter("solver.ipm.barrier_restarts").inc()
                lane.warm = warm
            except Exception as exc:  # noqa: BLE001 - delivered per lane
                lane.outcome = exc
                continue
            ready.append(lane)
            starts.append(x)
            mus.append(mu)
            gaps.append(gap_target)
        self.lanes = ready
        if not ready:
            return
        self._stack_constants(ready)
        batch = len(ready)
        self.x = np.stack(starts)
        self.mu = np.array(mus)
        self.gap_target = np.array(gaps)
        self.iterations = np.zeros(batch, dtype=np.int64)
        self.newton_count = np.zeros(batch, dtype=np.int64)
        self.outer_count = np.zeros(batch, dtype=np.int64)
        self.last_decrement = np.zeros(batch)
        self.partial = np.zeros(batch, dtype=bool)

    @staticmethod
    def _strictly_feasible_one(sub, x: np.ndarray) -> bool:
        demand = x.sum(axis=0) - np.asarray(sub.workloads, dtype=float)
        capacity = np.asarray(sub.capacities, dtype=float) - x.sum(axis=1)
        return x.min() > 0 and demand.min() > 0 and capacity.min() > 0

    # -- lane retirement ------------------------------------------------------

    def _record_trace(self, positions: np.ndarray) -> None:
        """Append one outer-iteration trace entry per finishing-mu lane.

        The (mu, cumulative Newton steps, final decrement) series is the
        solver's convergence fingerprint, persisted to the manifest so
        behavioural regressions show even when wall time does not
        (docs/DIAGNOSTICS.md). Lanes only keep it under a real registry.
        """
        for pos in positions:
            lane = self.lanes[pos]
            if lane.trace is not None:
                lane.trace.append(
                    {
                        "mu": float(self.mu[pos]),
                        "iterations": int(self.iterations[pos]),
                        "decrement": float(self.last_decrement[pos]),
                    }
                )

    def _finish_lane(self, pos: int) -> None:
        """Build the lane's SolverResult from its stacked state.

        Barrier iterates are strictly interior by construction, so a
        budget-truncated (partial) x is always feasible — degraded in cost,
        never in constraints (Theorem 1 survives the cutoff).
        """
        lane = self.lanes[pos]
        x = self.x[pos].copy()
        mu = float(self.mu[pos])
        iterations = int(self.iterations[pos])
        partial = bool(self.partial[pos])
        lane.final = {
            "backend": self.name,
            "iterations": iterations,
            "mu": mu,
            "gap_target": float(self.gap_target[pos]),
            "partial": partial,
        }
        demand = x.sum(axis=0) - self.workloads[pos]
        capacity = self.capacities[pos] - x.sum(axis=1)
        # The barrier's implicit multipliers: mu over the respective slack.
        # "nonnegativity" pairs with the x >= 0 bounds elementwise, so the
        # diagnostics layer can evaluate KKT residuals and a duality-gap
        # certificate without re-deriving anything.
        duals = {
            "demand": mu / demand,
            "capacity": mu / capacity,
            "nonnegativity": (mu / x).ravel(),
            "mu": mu,
        }
        flat = x.ravel()
        lane.outcome = SolverResult(
            x=flat,
            objective=float(lane.program.objective(flat)),
            iterations=iterations,
            backend=self.name,
            duals=duals,
            partial=partial,
        )

    def _fail_lane(self, pos: int, error: Exception) -> None:
        self.lanes[pos].outcome = error

    def _retire(self, finished: np.ndarray, failed: dict[int, Exception]) -> None:
        """Finish/fail the flagged lanes, then compact the stacked state."""
        batch = len(self.lanes)
        drop = np.zeros(batch, dtype=bool)
        for pos in np.nonzero(finished)[0]:
            self._finish_lane(int(pos))
            drop[pos] = True
        for pos, error in failed.items():
            self._fail_lane(pos, error)
            drop[pos] = True
        if not drop.any():
            return
        keep = ~drop
        self.lanes = [lane for pos, lane in enumerate(self.lanes) if keep[pos]]
        if self.lanes:
            self._take(keep)

    # -- the lockstep loop ----------------------------------------------------

    def run(self) -> None:
        """Drive every lane to completion (outcomes land on the lanes)."""
        self._setup()
        while self.lanes:
            self._macro_step()

    def _budget_fired(self) -> np.ndarray:
        """Per-lane budget check, at the top of every Newton step.

        A fired budget turns the lane into a partial result instead of an
        error (docs/SERVING.md). Wall-clock budgets share the batch's
        clock — a deadline measures real time, and lanes progress together
        in real time — while iteration budgets count each lane's own Newton
        steps exactly.
        """
        batch = len(self.lanes)
        fired = np.zeros(batch, dtype=bool)
        elapsed = None
        for pos, lane in enumerate(self.lanes):
            if lane.budget is None:
                continue
            if elapsed is None:
                elapsed = time.perf_counter() - self._budget_start
            fired[pos] = lane.budget.exhausted(
                elapsed_s=elapsed, iterations=int(self.iterations[pos])
            )
        return fired

    def _macro_step(self) -> None:
        """One Newton attempt for every active lane, then lane transitions.

        The ``phase`` blocks are the profiling plane's phase timers
        (docs/OBSERVABILITY.md §12): free no-op context managers unless a
        profile is active, and purely observational either way — the
        floating-point operation sequence is identical with profiling on
        or off.
        """
        batch = len(self.lanes)
        # after_newton: lanes whose inner Newton loop ends this step.
        after_newton = self._budget_fired()
        self.partial = self.partial | after_newton
        failed: dict[int, Exception] = {}
        stepping = ~after_newton
        if stepping.any():
            with phase("ipm.assemble"):
                grad = self._barrier_gradient(self.x, self.mu)
            with phase("ipm.factorize_smw"):
                dx, singular = self._newton_direction(self.x, grad, self.mu)
                for pos in np.nonzero(singular & stepping)[0]:
                    failed[int(pos)] = SolverError(
                        f"{self.name}: Woodbury system singular"
                    )
                    stepping[pos] = False
                    after_newton[pos] = False
            with phase("ipm.convergence_check"):
                directional = (grad * dx).reshape(batch, -1).sum(axis=1)
                decrement = -directional
                self.last_decrement = np.where(
                    stepping, decrement, self.last_decrement
                )
                converged = stepping & (
                    (decrement <= 0)
                    | (decrement * 0.5 <= 1e-10 * np.maximum(1.0, self.mu))
                )
                after_newton |= converged
                stepping &= ~converged
        if stepping.any():
            with phase("ipm.line_search"):
                alpha = np.minimum(1.0, self._max_step(self.x, dx))
                value = self._barrier_value(self.x, self.mu)
                accepted = np.zeros(batch, dtype=bool)
                candidate = self.x
                # The `alpha > 1e-14` guard runs before the first probe
                # too: a lane whose capped step is already tiny exits the
                # Newton loop without evaluating any candidate.
                dry = stepping & (alpha <= 1e-14)
                after_newton |= dry
                pending = stepping & ~dry
                while pending.any():
                    candidate = np.where(
                        pending[:, None, None],
                        self.x + alpha[:, None, None] * dx,
                        candidate,
                    )
                    new_value = self._barrier_value(candidate, self.mu)
                    ok = pending & (
                        new_value <= value + (_ARMIJO_C * alpha) * directional
                    )
                    accepted |= ok
                    pending &= ~ok
                    alpha = np.where(pending, alpha * _BACKTRACK, alpha)
                    exhausted = pending & (alpha <= 1e-14)
                    # Line search ran dry: the lane's Newton loop ends
                    # without moving x.
                    after_newton |= exhausted
                    pending &= ~exhausted
            if accepted.any():
                self.x = np.where(accepted[:, None, None], candidate, self.x)
                self.iterations = self.iterations + accepted
                self.newton_count = self.newton_count + accepted
                hit_cap = accepted & (self.newton_count >= _MAX_NEWTON_PER_MU)
                after_newton |= hit_cap
        # Outer-loop transitions for every lane whose Newton loop ended.
        if after_newton.any():
            positions = np.nonzero(after_newton)[0]
            self._record_trace(positions)
            finished = after_newton & (
                self.partial
                | (self.mu * self.num_constraints <= self.gap_target)
            )
            continuing = after_newton & ~finished
            self.outer_count = self.outer_count + after_newton
            ran_out = continuing & (self.outer_count >= _MAX_OUTER)
            for pos in np.nonzero(ran_out)[0]:
                failed[int(pos)] = SolverError(
                    f"{self.name}: barrier loop did not converge"
                )
            continuing &= ~ran_out
            self.mu = np.where(continuing, self.mu * _MU_DECAY, self.mu)
            self.newton_count = np.where(continuing, 0, self.newton_count)
        else:
            finished = np.zeros(batch, dtype=bool)
        if finished.any() or failed:
            self._retire(finished, failed)


# ----- public API ------------------------------------------------------------


def solve_batch(
    programs: Sequence[ConvexProgram],
    *,
    tol: float | Sequence[float] = 1e-8,
    registries: Sequence | None = None,
    traces: "Sequence[TraceContext | None] | None" = None,
) -> list[SolverResult | Exception]:
    """Solve many P2 programs with the lockstep batched barrier method.

    Programs are grouped by ``(I, J)`` shape; each group runs as one
    stacked solve with per-instance convergence masks. Every instance's
    result — including failures — is **bit-identical** to what a one-lane
    :class:`InteriorPointBackend` solve of it produces.

    Args:
        programs: programs carrying ``RegularizedSubproblem`` structure.
        tol: one tolerance for all, or one per program.
        registries: optional per-program telemetry registries (the batched
            sweep runner passes each requesting cell's registry so solver
            counters aggregate exactly as one solve at a time); defaults
            to the active registry.
        traces: optional per-program distributed-trace contexts (the
            coordinator passes each submitter's context so deferred
            telemetry stays attributed); defaults to the caller's current
            context for every program.

    Returns:
        One entry per program, in order: a :class:`SolverResult`, or the
        exception a solve of that program alone would have raised
        (callers re-raise or fall back per instance — never batch-wide).
    """
    programs = list(programs)
    if np.ndim(tol) == 0:
        tols = [float(tol)] * len(programs)
    else:
        tols = [float(t) for t in tol]
        if len(tols) != len(programs):
            raise ValueError("tol must be scalar or one per program")
    if registries is None:
        registries = [get_registry()] * len(programs)
    elif len(registries) != len(programs):
        raise ValueError("registries must be one per program")
    if traces is None:
        traces = [current_trace()] * len(programs)
    elif len(traces) != len(programs):
        raise ValueError("traces must be one per program")

    batch_registry = get_registry()
    lanes: list[_Lane] = []
    groups: dict[tuple[int, int], list[_Lane]] = {}
    for program, lane_tol, registry, trace in zip(programs, tols, registries, traces):
        sub = program.structure
        lane = _Lane(program, sub, lane_tol, registry, trace)
        lanes.append(lane)
        if sub is None or not hasattr(sub, "hessian_factors"):
            lane.outcome = SolverError(
                f"{BATCHED_BACKEND_NAME} requires a program with "
                "RegularizedSubproblem structure"
            )
        else:
            groups.setdefault((sub.num_clouds, sub.num_users), []).append(lane)

    batch_registry.counter("solver.batched.calls").inc()
    batch_registry.counter("solver.batched.instances").inc(len(programs))
    batch_registry.counter("solver.batched.groups").inc(len(groups))
    for group in groups.values():
        batch_registry.histogram("solver.batched.batch_size").observe(
            len(group)
        )
        _GroupSolve(group).run()

    outcomes: list[SolverResult | Exception] = []
    for lane in lanes:
        assert lane.outcome is not None, "lane left without an outcome"
        lane.emit_telemetry()
        outcomes.append(lane.outcome)
    return outcomes


# ----- deferred solves: the lockstep rendezvous for concurrent cells ---------


@dataclass
class _PendingSolve:
    """One enqueued program waiting for the next batched flush."""

    program: ConvexProgram
    tol: float
    registry: object
    trace: TraceContext | None = None
    event: threading.Event = field(default_factory=threading.Event)
    outcome: SolverResult | Exception | None = None


class BatchCoordinator:
    """Collects concurrent P2 solves and flushes them as one batch.

    ``total`` participants (threads) register up front. A participant that
    needs a solve calls :meth:`submit` and blocks; a participant that is
    done calls :meth:`finish`. Whenever every live participant is either
    blocked in :meth:`submit` or finished, the last arriver flushes the
    pending set through :func:`solve_batch` and wakes everyone with their
    outcome. This is the rendezvous that lets otherwise-unchanged
    sequential cell code (threads running the normal simulation spine) be
    batched at its natural synchronization points — with no deadlock: every
    participant eventually blocks or finishes, and each flush unblocks all
    waiters.
    """

    def __init__(self, total: int):
        if total < 1:
            raise ValueError("total participants must be at least 1")
        self._total = total
        self._finished = 0
        self._pending: list[_PendingSolve] = []
        self._lock = threading.Lock()

    def submit(self, program: ConvexProgram, *, tol: float) -> SolverResult:
        """Enqueue a solve, flush if this completes the rendezvous, block."""
        entry = _PendingSolve(program, tol, get_registry(), current_trace())
        with self._lock:
            self._pending.append(entry)
            flush = self._flush_ready()
        if flush is not None:
            self._flush(flush)
        entry.event.wait()
        if isinstance(entry.outcome, Exception):
            raise entry.outcome
        assert entry.outcome is not None
        return entry.outcome

    def finish(self) -> None:
        """Mark one participant done (call exactly once per participant)."""
        with self._lock:
            self._finished += 1
            flush = self._flush_ready()
        if flush is not None:
            self._flush(flush)

    def _flush_ready(self) -> list[_PendingSolve] | None:
        """Under the lock: claim the pending set if the rendezvous is full."""
        if self._pending and len(self._pending) + self._finished >= self._total:
            batch, self._pending = self._pending, []
            return batch
        return None

    def _flush(self, batch: list[_PendingSolve]) -> None:
        outcomes = solve_batch(
            [entry.program for entry in batch],
            tol=[entry.tol for entry in batch],
            registries=[entry.registry for entry in batch],
            traces=[entry.trace for entry in batch],
        )
        for entry, outcome in zip(batch, outcomes):
            entry.outcome = outcome
            entry.event.set()


@dataclass(frozen=True)
class DeferringBackend:
    """A :class:`ConvexBackend` that routes solves through a coordinator.

    Swapped in as the *primary* of a per-cell ``FallbackBackend`` by the
    batched sweep runner: the cell's code path (warm starts, repair,
    certificates, circuit breaker, SciPy fallback) is untouched — only the
    structured-IPM solve itself is deferred into the shared batch. A
    deferred solve that fails raises here, in the requesting thread, so the
    fallback semantics are exactly the sequential ones.
    """

    coordinator: BatchCoordinator
    name: str = BATCHED_BACKEND_NAME

    def solve(self, program: ConvexProgram, *, tol: float = 1e-8) -> SolverResult:
        """Block until the next batched flush delivers this solve's outcome."""
        return self.coordinator.submit(program, tol=tol)
