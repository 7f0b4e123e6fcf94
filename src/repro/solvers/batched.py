"""The structured primal-dual kernel: one lockstep solve over stacked P2 lanes.

This module holds the repo's only interior-point implementation, a
Mehrotra predictor-corrector method specialised to P2 (the paper solved P2
with IPOPT, also a primal-dual interior-point method). Per lane:

* the primal x stays strictly interior and the demand and capacity slacks
  are functions of x, so every iterate — including a budget-truncated one
  — is feasible;
* the duals ``z`` (x >= 0), ``y_demand`` and ``y_capacity`` are iterated
  alongside x and returned as the result's multipliers;
* the Newton matrix is ``diag(f_diag + z/x)`` plus one dyad per cloud and
  one per user, so each step inverts the ``I x I`` Schur complement of its
  ``(I+J)`` Sherman-Morrison-Woodbury core once and applies it to both the
  predictor and the corrector;
* a lane stops when the certificate's closed-form duality-gap bound at
  its own multipliers falls to ``_GAP_SHARE * tol * max(1, |f(x)|)``;
* a lane that cannot certify — its slacks reached float64 rounding, its
  Woodbury system went singular, or it used ``_MAX_ITERATIONS`` steps —
  finishes as a partial result at its current interior iterate, exactly
  like a budget-truncated one (counted as ``solver.ipm.unconverged``).

A solve of B same-shape P2 instances ("lanes") stacks them into contiguous
``(B, I, J)`` arrays and runs **one** lockstep iteration over all of them:
every NumPy call advances B solves, and the Schur complements become a
single batched ``np.linalg.inv`` over a ``(B, I, I)`` stack. At fig2 scale each
step is a few dozen microsecond-sized NumPy calls, so stacking amortizes
the Python dispatch that dominates a lone solve.
:class:`repro.solvers.interior_point.InteriorPointBackend` is the B = 1 case
of the same kernel; :func:`solve_batch` is the stacked entry point.

The hard invariant is **lane independence**: a lane's floats — solution,
objective, iteration count, duals, partial flag — do not depend on
its batch-mates, on the batch size, or on when finished lanes are compacted
away. A lane solved in a batch is therefore bit-identical to the same
program solved alone through ``InteriorPointBackend`` (pinned by
``tests/solvers/test_batched.py``). The reductions this relies on:

* last-axis sums (``(B,I,J).sum(axis=2)``) use NumPy's pairwise summation
  per contiguous row — the same per lane for any B;
* non-last-axis sums (``sum(axis=1)``) accumulate sequentially in index
  order within each lane;
* full-lane sums and minima reduce the raveled lane
  (``reshape(B, -1).sum(axis=1)``), one row per lane;
* masked minima and maxima are order-insensitive, so ``where(...)+min``
  never mixes lanes;
* the batched ``np.linalg.inv`` runs the same LAPACK ``gesv`` on each
  stacked matrix, and the inverse is applied as a product reduced over the
  last axis rather than a batched matmul.

Instances converge at different speeds; finished lanes are dropped from
the stack (compaction by fancy indexing), so late stragglers do not pay for
the whole batch. Mixed shapes are handled by grouping: one lockstep solve
per distinct ``(I, J)``.

See docs/SOLVER.md for the algorithm and docs/PERFORMANCE.md for the
stacking layout and the measured wins.
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
#: distance to the nearest primal or dual boundary.
_BOUNDARY_FRACTION = 0.99
#: Predictor-corrector steps before a solve stops as unconverged.
_MAX_ITERATIONS = 100
#: The stop rule: a lane finishes once its certified gap bound is at most
#: this share of ``tol * scale``. The head-room keeps certificates that are
#: re-evaluated elsewhere (other gradients, repaired points) inside ``tol``.
_GAP_SHARE = 0.1
#: Mehrotra's centring exponent: sigma = (mu_affine / mu) ** 3.
_CENTERING_POWER = 3
#: Floor on the centring target, as a share of ``tol * scale`` spread over
#: the m complementarity pairs. Half the stop share, so a floored iterate
#: lands strictly inside the stop rule; any deeper and the binding demand
#: slacks ``sum_i x_ij - lambda_j`` shrink toward their own rounding.
_FLOOR_SHARE = 0.05
#: Smallest tolerance honoured; tighter requests are clamped to it.
_MIN_TOL = 1e-10
#: A lane that cannot move further (its slacks reached float64 rounding or
#: its Woodbury system went singular, see ``_step``) finishes as converged
#: if its gap is at most this share of ``scale`` (the certificate tolerance,
#: ``diagnostics.certificates.DEFAULT_GAP_TOL``), and as an unconverged
#: partial result otherwise. Tolerances near ``_MIN_TOL`` on workloads in
#: the thousands get there, and so do P2s with all dynamic prices zero
#: (no entropy curvature).
_STALL_GAP = 1e-6

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
        "sub",
        "tol",
        "registry",
        "budget",
        "trace",
        "trace_ctx",
        "outcome",
        "final",
    )

    def __init__(self, program: ConvexProgram, tol, registry, trace_ctx=None):
        self.sub = program.structure
        self.tol = tol
        self.registry = registry
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
        if final["unconverged"]:
            telemetry.counter("solver.ipm.unconverged").inc()
        elif final["partial"]:
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
                mu_final=final["mu"],
                gap_final=final["gap"],
                gap_target=final["gap_target"],
                partial=final["partial"],
                unconverged=final["unconverged"],
                trace=self.trace,
                **linkage,
            )


def _lane_sum(values: np.ndarray) -> np.ndarray:
    """Per-lane sum of a stacked array (one raveled row per lane)."""
    return values.reshape(values.shape[0], -1).sum(axis=1)


def _max_step(values: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """Per-lane largest alpha keeping every ``values + alpha * steps > 0``."""
    ratios = np.full_like(values, np.inf)
    np.divide(values, -steps, out=ratios, where=steps < 0)
    return ratios.min(axis=1)


class _GroupSolve:
    """One lockstep primal-dual solve over same-shape instances.

    ``lanes`` holds the lanes still iterating, and every stacked array is
    compacted to them whenever some retire, so finished instances stop
    costing anything.

    Complementarity pairs live in "pair space": a lane's ``m`` primal
    values ``[x (I*J, cloud-major), demand slacks (J), capacity slacks
    (I)]`` line up with its duals ``[z, y_demand, y_capacity]``, so
    products, ratio tests and dual updates are single ``(B, m)`` calls.
    """

    def __init__(self, lanes: list[_Lane], *, name: str = BATCHED_BACKEND_NAME):
        self.lanes = lanes
        self.name = name
        sub = lanes[0].sub
        self.num_clouds = sub.num_clouds
        self.num_users = sub.num_users
        self.n = self.num_clouds * self.num_users
        self.num_constraints = self.n + self.num_users + self.num_clouds

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
        x_prev = np.stack([np.asarray(s.x_prev, dtype=float) for s in subs])
        self.prev_shifted = x_prev.sum(axis=2) + self.eps1[:, None]
        self.prev_mig = x_prev + self.eps2
        self.workloads = np.stack(
            [np.asarray(s.workloads, dtype=float) for s in subs]
        )
        self.capacities = np.stack(
            [np.asarray(s.capacities, dtype=float) for s in subs]
        )

    #: Every per-lane stacked array, compacted together when lanes retire.
    _STACKED = (
        "prices",
        "creg",
        "bmig",
        "eps1",
        "eps2",
        "prev_shifted",
        "prev_mig",
        "workloads",
        "capacities",
        "tol",
        "x",
        "primal",
        "duals",
        "iterations",
        "stalled",
    )

    def _take(self, keep: np.ndarray) -> None:
        """Compact every stacked array to the kept lane positions."""
        for attr in self._STACKED:
            setattr(self, attr, getattr(self, attr)[keep])

    def _split(self, pairs: np.ndarray):
        """A pair-space array as its (x-table, demand, capacity) views."""
        n, nu = self.n, self.num_users
        return (
            pairs[:, :n].reshape(-1, self.num_clouds, nu),
            pairs[:, n : n + nu],
            pairs[:, n + nu :],
        )

    # -- stacked P2 arithmetic ------------------------------------------------

    def _primal_pairs(self, x: np.ndarray) -> np.ndarray:
        """``[x, demand slacks, capacity slacks]`` per lane."""
        return np.concatenate(
            [
                x.reshape(x.shape[0], -1),
                x.sum(axis=1) - self.workloads,
                self.capacities - x.sum(axis=2),
            ],
            axis=1,
        )

    def _objective_and_gradient(
        self, x: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Stacked P2 objective (one value per lane) and gradient.

        The objective reuses the gradient's logarithms; it only sets the
        scale of the stop rule, so it need not match
        ``RegularizedSubproblem.objective`` to the last bit (results report
        that one).
        """
        cloud_totals = x.sum(axis=2)
        shifted = np.maximum(cloud_totals + self.eps1[:, None], 1e-12)
        cloud_log = np.log(shifted / self.prev_shifted)
        xs = np.maximum(x + self.eps2, 1e-12)
        user_log = np.log(xs / self.prev_mig)
        grad = self.prices + (self.creg * cloud_log)[:, :, None]
        grad = grad + self.bmig * user_log
        value = (
            _lane_sum(self.prices * x + self.bmig * (xs * user_log - x))
            + (self.creg * (shifted * cloud_log - cloud_totals)).sum(axis=1)
        )
        return value, grad

    # -- the Woodbury-structured Newton system --------------------------------

    def _factorize(
        self, x: np.ndarray, primal: np.ndarray
    ) -> tuple[tuple, np.ndarray]:
        """Factor the primal-dual Newton matrix once for this iteration.

        The matrix is ``M = D + U W U^T``: ``D = diag(f_diag + z/x)`` plus
        one dyad per cloud (weight ``cloud_scale + y_capacity/capacity``)
        and one per user (weight ``y_demand/demand``) over the indicator
        families. Its Sherman-Morrison-Woodbury core ``W^-1 + U^T D^-1 U``
        has a diagonal cloud block, a diagonal user block and ``D^-1`` as
        the cross block, so eliminating the users leaves the dense
        ``I x I`` Schur complement ``S = diag(rowsum(D^-1) + 1/w_cloud) -
        D^-1 diag(g) D^-T`` with ``g = 1/(colsum(D^-1) + 1/w_user)``. ``S``
        is inverted once and applied to both the predictor and the
        corrector. Returns the factor tuple (with the pair-space ``duals /
        primal`` ratios) and a per-lane singular mask.
        """
        batch = x.shape[0]
        ratio = self.duals / primal
        z_ratio, _, capacity_ratio = self._split(ratio)
        _, demand, _ = self._split(primal)
        _, y_demand, _ = self._split(self.duals)
        cloud_scale = self.creg / np.maximum(
            x.sum(axis=2) + self.eps1[:, None], 1e-12
        )
        dinv = 1.0 / (self.bmig / np.maximum(x + self.eps2, 1e-12) + z_ratio)
        # Inverse dyad weights: user weights y/d reach ~1e12 at binding
        # demand rows, their inverses d/y stay tame.
        cloud_inv_w = 1.0 / (cloud_scale + capacity_ratio)
        user_gain = 1.0 / (dinv.sum(axis=1) + demand / y_demand)
        schur = -(
            (dinv * user_gain[:, None, :])[:, :, None, :] * dinv[:, None, :, :]
        ).sum(axis=3)
        diagonal = schur.reshape(batch, -1)[:, :: self.num_clouds + 1]
        diagonal += dinv.sum(axis=2) + cloud_inv_w
        singular = np.zeros(batch, dtype=bool)
        try:
            inverse = np.linalg.inv(schur)
        except np.linalg.LinAlgError:
            # One singular lane poisons the whole gufunc call; redo the
            # stack lane by lane (same LAPACK routine on the same memory,
            # so surviving lanes get identical floats) and flag the bad
            # ones — they stall exactly as they would alone.
            inverse = np.zeros_like(schur)
            for k in range(batch):
                try:
                    inverse[k] = np.linalg.inv(schur[k])
                except np.linalg.LinAlgError:
                    singular[k] = True
        return (dinv, cloud_inv_w, user_gain, inverse, ratio), singular

    def _directions(self, factors: tuple, rhs: np.ndarray):
        """Solve ``M dx = rhs``; returns ``dx`` and the pair-space steps.

        ``q = W U^T dx`` solves the Woodbury core system by block
        elimination (clouds through the Schur inverse, then users). The
        dual steps (before the complementarity targets, which the caller
        adds as ``t / primal``) eliminate through ``q``: ``dy_demand =
        -y_demand - q_user`` and ``dy_capacity = -y_capacity +
        (y_capacity/capacity) * q_cloud / w``. Re-forming ``(y/d) *
        colsum(dx)`` instead would amplify the rounding of ``colsum(dx)``
        by the ~1e12 weights of binding demand rows into the multipliers.
        Core products are elementwise products reduced over the last axis
        — per-lane pairwise sums, identical for any batch size — rather
        than batched matmuls whose BLAS kernel choice could depend on the
        stack.
        """
        dinv, cloud_inv_w, user_gain, inverse, ratio = factors
        batch = rhs.shape[0]
        scaled = dinv * rhs
        user_part = user_gain * scaled.sum(axis=1)
        cloud_rhs = scaled.sum(axis=2) - (dinv * user_part[:, None, :]).sum(axis=2)
        q_cloud = (inverse * cloud_rhs[:, None, :]).sum(axis=2)
        q_user = user_part - user_gain * (dinv * q_cloud[:, :, None]).sum(axis=1)
        dx = dinv * (rhs - (q_cloud[:, :, None] + q_user[:, None, :]))
        flat = dx.reshape(batch, -1)
        d_primal = np.concatenate(
            [flat, dx.sum(axis=1), -dx.sum(axis=2)], axis=1
        )
        coupling = np.concatenate(
            [
                ratio[:, : self.n] * flat,
                q_user,
                -ratio[:, self.n + self.num_users :] * cloud_inv_w * q_cloud,
            ],
            axis=1,
        )
        return dx, d_primal, -self.duals - coupling

    # -- setup ----------------------------------------------------------------

    def _setup(self) -> None:
        """Per-lane cold starts at the canonical strictly interior point.

        Duals start on the central path of ``mu0 = max(1, |f(x0)|) / m``:
        ``z = mu0 / x`` and likewise for the demand and capacity slacks.
        Any error here fails only its own lane. The solver raises only for a
        slot with no strict interior: ``sum(C) <= Lambda`` (a ``ValueError``
        from ``interior_point``) or a start that rounding left on the
        boundary (``SolverError``).
        """
        ready: list[_Lane] = []
        starts: list[np.ndarray] = []
        mus: list[float] = []
        shape = (self.num_clouds, self.num_users)
        for lane in self.lanes:
            try:
                x = lane.sub.interior_point().reshape(shape)
                if not self._strictly_feasible_one(lane.sub, x):
                    raise SolverError(f"{self.name}: no strictly feasible start")
                scale = max(1.0, abs(lane.sub.objective(x.ravel())))
            except Exception as exc:  # noqa: BLE001 - delivered per lane
                lane.outcome = exc
                continue
            ready.append(lane)
            starts.append(x)
            mus.append(scale / self.num_constraints)
        self.lanes = ready
        if not ready:
            return
        self._stack_constants(ready)
        batch = len(ready)
        self.tol = np.array([max(lane.tol, _MIN_TOL) for lane in ready])
        self.x = np.stack(starts)
        self.primal = self._primal_pairs(self.x)
        self.duals = np.array(mus)[:, None] / self.primal
        self.iterations = np.zeros(batch, dtype=np.int64)
        self.stalled = np.zeros(batch, dtype=bool)

    @staticmethod
    def _strictly_feasible_one(sub, x: np.ndarray) -> bool:
        demand = x.sum(axis=0) - np.asarray(sub.workloads, dtype=float)
        capacity = np.asarray(sub.capacities, dtype=float) - x.sum(axis=1)
        return x.min() > 0 and demand.min() > 0 and capacity.min() > 0

    # -- lane retirement ------------------------------------------------------

    def _finish_lane(
        self,
        pos: int,
        mu: float,
        relative_gap: float,
        target: float,
        partial: bool,
        unconverged: bool,
    ) -> None:
        """Build the lane's SolverResult from its stacked state.

        Iterates are strictly interior by construction, so a partial x —
        budget-truncated or unconverged — is always feasible: degraded in
        cost, never in constraints (Theorem 1 survives the cutoff). The
        duals are the iterate's own multipliers, so certificates re-derive
        the same gap bound the stop rule used.
        """
        lane = self.lanes[pos]
        x = self.x[pos].copy()
        iterations = int(self.iterations[pos])
        lane.final = {
            "backend": self.name,
            "iterations": iterations,
            "mu": mu,
            "gap": relative_gap,
            "gap_target": target,
            "partial": partial,
            "unconverged": unconverged,
        }
        z, y_demand, y_capacity = self._split(self.duals[pos : pos + 1].copy())
        duals = {
            "demand": y_demand[0],
            "capacity": y_capacity[0],
            "nonnegativity": z[0].ravel(),
            "mu": mu,
        }
        flat = x.ravel()
        lane.outcome = SolverResult(
            x=flat,
            objective=float(lane.sub.objective(flat)),
            iterations=iterations,
            backend=self.name,
            duals=duals,
            partial=partial,
            gap=relative_gap,
        )

    def _retire(
        self,
        done: np.ndarray,
        partial: np.ndarray,
        unconverged: np.ndarray,
        mu: np.ndarray,
        relative_gap: np.ndarray,
        target: np.ndarray,
    ) -> None:
        """Finish the flagged lanes, then compact the stacked state."""
        for pos in np.nonzero(done)[0]:
            self._finish_lane(
                int(pos),
                float(mu[pos]),
                float(relative_gap[pos]),
                float(target[pos]),
                bool(partial[pos]),
                bool(unconverged[pos]),
            )
        keep = ~done
        self.lanes = [lane for pos, lane in enumerate(self.lanes) if keep[pos]]
        if self.lanes:
            self._take(keep)

    # -- the lockstep loop ----------------------------------------------------

    def run(self, started: float | None = None) -> None:
        """Drive every lane to completion (outcomes land on the lanes);
        deadlines run from ``started`` (:func:`solve_batch`'s one clock)."""
        self._budget_start = time.perf_counter() if started is None else started
        self._setup()
        while self.lanes:
            self._macro_step()

    def _budget_fired(self) -> np.ndarray:
        """Per-lane budget check, at the top of every iteration.

        A fired budget turns the lane into a partial result instead of an
        error (docs/SERVING.md). Wall-clock budgets share the batch's
        clock — a deadline measures real time, and lanes progress together
        in real time — while iteration budgets count each lane's own
        predictor-corrector steps exactly.
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
        """One predictor-corrector step for every active lane.

        The iterate is assembled and certified first; lanes whose certified
        gap met the target, whose budget fired, or that cannot certify
        (stalled, non-finite gap, out of steps) retire with the current
        point, and the survivors take one step. The ``phase`` blocks are
        the profiling plane's phase timers (docs/OBSERVABILITY.md §12):
        free no-op context managers unless a profile is active, and purely
        observational either way — the floating-point operation sequence
        is identical with profiling on or off.
        """
        fired = self._budget_fired()
        x, primal = self.x, self.primal
        with phase("ipm.assemble"):
            value, grad = self._objective_and_gradient(x)
            _, y_demand, y_capacity = self._split(self.duals)
            reduced = grad - y_demand[:, None, :] + y_capacity[:, :, None]
            mu = (primal * self.duals).sum(axis=1) / self.num_constraints
        with phase("ipm.convergence_check"):
            # The certificate's closed-form bound on f(x) - min P2 (see
            # diagnostics/certificates.py): reduced·x + y_demand·demand +
            # y_capacity·capacity + sum_i C_i max_j (-reduced_ij)+.
            batch = x.shape[0]
            paired = np.concatenate(
                [reduced.reshape(batch, -1), y_demand, y_capacity], axis=1
            )
            worst_row = np.maximum(-reduced, 0.0).max(axis=2)
            gap = (primal * paired).sum(axis=1) + (
                self.capacities * worst_row
            ).sum(axis=1)
            scale = np.maximum(1.0, np.abs(value))
            target = self.tol * scale
            certified = gap <= _GAP_SHARE * target
            converged = certified | (self.stalled & (gap <= _STALL_GAP * scale))
            # A budget that fires on an already certified iterate changes
            # nothing: the lane finishes as a normal, non-partial result.
            truncated = fired & ~certified
            unconverged = (
                ~fired
                & ~converged
                & (
                    self.stalled
                    | ~np.isfinite(gap)
                    | (self.iterations >= _MAX_ITERATIONS)
                )
            )
            done = fired | converged | unconverged
        if done.any():
            self._retire(
                done, truncated | unconverged, unconverged, mu, gap / scale, target
            )
            if not self.lanes:
                return
            keep = ~done
            grad, reduced, primal, mu, target = (
                array[keep] for array in (grad, reduced, primal, mu, target)
            )
        self._step(grad, reduced, primal, mu, target)

    def _step(self, grad, reduced, primal, mu, target) -> None:
        """Mehrotra predictor-corrector step on one factorization.

        The affine (predictor) direction aims at zero complementarity; its
        step length sets the centring ``sigma = (mu_aff / mu)^3``, floored
        so the target never drops below ``_FLOOR_SHARE * target / m``
        (deeper centring pushes the binding slacks under rounding). The
        corrector adds the predictor's second-order complementarity term.
        Both share one step length for primal and dual variables. A lane
        whose Woodbury system is singular, or whose step would round a
        slack to zero, keeps its iterate and is marked stalled; the next
        convergence check retires it.
        """
        m = self.num_constraints
        x, duals = self.x, self.duals
        with phase("ipm.factorize_smw"):
            factors, singular = self._factorize(x, primal)
            dx, d_primal, d_duals = self._directions(factors, -grad)
        with phase("ipm.line_search"):
            pairs = np.concatenate([primal, duals], axis=1)
            alpha = np.minimum(
                1.0, _max_step(pairs, np.concatenate([d_primal, d_duals], axis=1))
            )[:, None]
            mu_affine = (
                (primal + alpha * d_primal) * (duals + alpha * d_duals)
            ).sum(axis=1) / m
            sigma = np.minimum(1.0, mu_affine / mu) ** _CENTERING_POWER
            centre = np.maximum(sigma * mu, _FLOOR_SHARE * target / m)
        with phase("ipm.factorize_smw"):
            # Corrector targets t = sigma*mu - d_primal_aff * d_duals_aff,
            # entering the right-hand side (and the dual steps) as t/primal.
            scaled_targets = (centre[:, None] - d_primal * d_duals) / primal
            t_x, t_demand, t_capacity = self._split(scaled_targets)
            rhs = (
                t_x
                - grad
                + t_demand[:, None, :]
                - t_capacity[:, :, None]
            )
            dx, d_primal, d_duals = self._directions(factors, rhs)
            d_duals = d_duals + scaled_targets
        with phase("ipm.line_search"):
            alpha = np.minimum(
                1.0,
                _BOUNDARY_FRACTION
                * _max_step(pairs, np.concatenate([d_primal, d_duals], axis=1)),
            )
            x_next = x + alpha[:, None, None] * dx
            duals_next = duals + alpha[:, None] * d_duals
            primal_next = self._primal_pairs(x_next)
            # Recomputed slacks sum_i x_ij - lambda_j can round to <= 0
            # once they are within a few ulps of their row totals (tight
            # tolerances on large workloads). Such a lane keeps its last
            # interior iterate and is marked stalled, as is a singular one.
            stuck = singular | ~(primal_next.min(axis=1) > 0)
            if stuck.any():
                x_next = np.where(stuck[:, None, None], x, x_next)
                duals_next = np.where(stuck[:, None], duals, duals_next)
                primal_next = np.where(stuck[:, None], primal, primal_next)
                self.stalled = self.stalled | stuck
            self.x, self.duals, self.primal = x_next, duals_next, primal_next
            stepped = ~stuck
            self.iterations = self.iterations + stepped
        self._record_trace(centre, mu, reduced, duals, alpha, stepped)

    def _record_trace(self, centre, mu, reduced, duals, alpha, stepped) -> None:
        """Append one entry per stepped lane to its convergence fingerprint.

        The (centring target, complementarity, dual residual, step length)
        series is persisted to the manifest, so behavioural regressions
        show even when wall time does not (docs/DIAGNOSTICS.md). Lanes only
        keep it under a real registry. ``reduced`` and ``duals`` are the
        pre-step ``grad - y_demand + y_capacity`` and pair-space duals, so
        ``reduced - z`` is the dual residual the step started from.
        """
        positions = [
            pos
            for pos, lane in enumerate(self.lanes)
            if lane.trace is not None and stepped[pos]
        ]
        if not positions:
            return
        batch = len(self.lanes)
        z = duals[:, : self.n]
        residual = np.abs(reduced.reshape(batch, -1) - z).max(axis=1)
        for pos in positions:
            self.lanes[pos].trace.append(
                {
                    "mu": float(centre[pos]),
                    "complementarity": float(mu[pos]),
                    "dual_residual": float(residual[pos]),
                    "step": float(alpha[pos]),
                }
            )


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
    :class:`InteriorPointBackend` solve of it produces. Deadlines run on
    one clock for the whole call, however many shape groups it solves.

    Args:
        programs: the P2 programs to solve.
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
        setup exception a solve of that program alone would have raised
        (callers re-raise per instance — never batch-wide).
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

    started = time.perf_counter()
    batch_registry = get_registry()
    lanes: list[_Lane] = []
    groups: dict[tuple[int, int], list[_Lane]] = {}
    for program, lane_tol, registry, trace in zip(programs, tols, registries, traces):
        lane = _Lane(program, lane_tol, registry, trace)
        lanes.append(lane)
        groups.setdefault((lane.sub.num_clouds, lane.sub.num_users), []).append(lane)

    batch_registry.counter("solver.batched.calls").inc()
    batch_registry.counter("solver.batched.instances").inc(len(programs))
    batch_registry.counter("solver.batched.groups").inc(len(groups))
    for group in groups.values():
        batch_registry.histogram("solver.batched.batch_size").observe(
            len(group)
        )
        _GroupSolve(group).run(started)

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

    Swapped in as each cell's allocator backend by the batched sweep
    runner: the cell's code path (repair, degradation ladder,
    certificates) is untouched — only the structured-IPM solve itself is
    deferred into the shared batch. A deferred solve that fails raises
    here, in the requesting thread, exactly as the sequential solve would.
    """

    coordinator: BatchCoordinator
    name: str = BATCHED_BACKEND_NAME

    def solve(self, program: ConvexProgram, *, tol: float = 1e-8) -> SolverResult:
        """Block until the next batched flush delivers this solve's outcome."""
        return self.coordinator.submit(program, tol=tol)
