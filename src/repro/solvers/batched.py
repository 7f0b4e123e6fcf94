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
step is about 150 microsecond-sized NumPy calls, so stacking amortizes
the Python dispatch that dominates a lone solve.
:class:`repro.solvers.interior_point.InteriorPointBackend` is the B = 1 case
of the same kernel; :func:`solve_batch` is the stacked entry point.

The hard invariant is **lane independence**: a lane's floats — solution,
objective, iteration count, duals, partial flag — do not depend on
its batch-mates, on the batch size, or on when finished lanes are compacted
away. A lane solved in a batch is therefore bit-identical to the same
program solved alone through ``InteriorPointBackend`` (pinned by
``tests/solvers/test_batched.py``, serving shapes and 16-lane stacks
included). The reductions this relies on:

* last-axis sums (``(B,I,J).sum(axis=2)``) use NumPy's pairwise summation
  per contiguous row — the same per lane for any B;
* non-last-axis sums (``sum(axis=1)``) accumulate sequentially in index
  order within each lane;
* per-lane dot products (``np.vecdot`` over a lane's raveled row) and the
  stacked matmuls of the Schur complement and the Woodbury solves loop
  over the stack and call BLAS once per lane, on that lane's matrices
  with the same shapes and strides whatever B is; which of a stack's
  lanes a call sees, or where the stack's memory starts, does not change
  a lane's arithmetic;
* minima (the ratio test, the gap's dual-infeasibility term) are
  order-insensitive and reduce one lane's row at a time;
* the batched ``np.linalg.inv`` runs the same LAPACK ``gesv`` on each
  stacked matrix.

Instances converge at different speeds; finished lanes are dropped from
the stack (compaction by fancy indexing), so late stragglers do not pay for
the whole batch. Mixed shapes are handled by grouping: one lockstep solve
per distinct ``(I, J)``.

See docs/SOLVER.md for the algorithm and docs/PERFORMANCE.md for the
stacking layout and the measured wins.
"""

from __future__ import annotations

import itertools
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
        # The per-step fingerprint only travels in a solver.ipm.trace event,
        # so it is built only where events are kept or streamed.
        self.trace: list[dict] | None = [] if registry.keeps_events else None
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


def _stack(arrays, shape: tuple[int, ...]) -> np.ndarray:
    """Stack per-lane arrays (or scalars, broadcast) into one float array."""
    out = np.empty((len(arrays), *shape))
    for pos, values in enumerate(arrays):
        out[pos] = values
    return out


def _step_length(pairs: np.ndarray, steps: np.ndarray, fraction: float) -> np.ndarray:
    """Per-lane ``min(1, fraction * alpha_max)`` for ``pairs + alpha * steps``.

    ``alpha_max = 1 / max(-steps / pairs)`` is the largest alpha keeping
    every (strictly positive) pair positive, infinite when no step is
    negative; starting the minimum ratio at ``-fraction`` folds the
    ``min(1, .)`` in without dividing by zero.
    """
    return -fraction / (steps / pairs).min(axis=1, initial=-fraction)


class _GroupSolve:
    """One lockstep primal-dual solve over same-shape instances.

    ``lanes`` holds the lanes still iterating, and every stacked array is
    compacted to them whenever some retire, so finished instances stop
    costing anything.

    Complementarity pairs live in "pair space": a lane's ``m`` primal
    values ``[x (I*J, cloud-major), demand slacks (J), capacity slacks
    (I)]`` line up with its duals ``[z, y_demand, y_capacity]``, so
    products and dual updates are single ``(B, m)`` calls, and a step
    direction is one ``(B, 2m)`` row ``[d_primal, d_duals]`` per lane that
    the ratio test reads against ``[primal, duals]``.
    """

    def __init__(self, lanes: list[_Lane], *, name: str = BATCHED_BACKEND_NAME):
        self.lanes = lanes
        self.name = name
        sub = lanes[0].sub
        self.num_clouds = sub.num_clouds
        self.num_users = sub.num_users
        self.n = self.num_clouds * self.num_users
        self.num_constraints = self.n + self.num_users + self.num_clouds
        self._demand = slice(self.n, self.n + self.num_users)
        self._capacity = slice(self.n + self.num_users, self.num_constraints)

    # -- stacked constants (built once per group) -----------------------------

    def _stack_constants(self, subs: list) -> None:
        table, clouds, users = (
            (self.num_clouds, self.num_users),
            (self.num_clouds,),
            (self.num_users,),
        )
        self.prices = _stack([s.static_prices for s in subs], table)
        self.creg = _stack([s.reconfig_weights for s in subs], clouds)
        self.bmig = _stack([s.migration_weights for s in subs], table)
        # The objective is ``sum(xs * migration) + sum(cloud * shifted) +
        # sum(x * linear)``: the entropies' ``-x`` terms join the prices.
        self.linear = self.prices - self.bmig - self.creg[:, :, None]
        self.eps1 = _stack([s.eps1 for s in subs], (1,))
        self.eps2 = _stack([s.eps2 for s in subs], (1, self.num_users))
        x_prev = _stack([s.x_prev for s in subs], table)
        self.prev_shifted = x_prev.sum(axis=2) + self.eps1
        self.prev_mig = x_prev + self.eps2
        self.workloads = _stack([s.workloads for s in subs], users)
        self.capacities = _stack([s.capacities for s in subs], clouds)

    #: Every per-lane stacked array, compacted together when lanes retire.
    _STACKED = (
        "prices",
        "creg",
        "bmig",
        "linear",
        "eps1",
        "eps2",
        "prev_shifted",
        "prev_mig",
        "workloads",
        "capacities",
        "tol",
        "x",
        "totals",
        "primal",
        "duals",
        "iterations",
        "stalled",
    )

    def _take(self, keep: np.ndarray) -> None:
        """Compact every stacked array to the kept lane positions."""
        for attr in self._STACKED:
            setattr(self, attr, getattr(self, attr)[keep])

    # -- stacked P2 arithmetic ------------------------------------------------

    def _primal_pairs(self, x: np.ndarray, totals: np.ndarray) -> np.ndarray:
        """``[x, demand slacks, capacity slacks]`` per lane (``totals`` are
        the cloud row sums of ``x``)."""
        return np.concatenate(
            [
                x.reshape(x.shape[0], -1),
                x.sum(axis=1) - self.workloads,
                self.capacities - totals,
            ],
            axis=1,
        )

    def _objective_and_gradient(self, x: np.ndarray, totals: np.ndarray):
        """Stacked P2 objective (one value per lane) and gradient.

        Also returns the floored shifted totals ``X_i + eps1`` and entries
        ``x_ij + eps2`` the Newton matrix reuses. The objective shares the
        gradient's logarithms and products, and its sums are per-lane dot
        products, so it equals ``RegularizedSubproblem.objective`` to
        rounding, not bit for bit.
        """
        batch = x.shape[0]
        shifted = np.maximum(totals + self.eps1, 1e-12)
        cloud = self.creg * np.log(shifted / self.prev_shifted)
        xs = np.maximum(x + self.eps2, 1e-12)
        migration = self.bmig * np.log(xs / self.prev_mig)
        grad = self.prices + cloud[:, :, None]
        grad += migration
        value = (
            np.vecdot(xs.reshape(batch, -1), migration.reshape(batch, -1))
            + np.vecdot(x.reshape(batch, -1), self.linear.reshape(batch, -1))
            + np.vecdot(cloud, shifted)
        )
        return value, grad, xs, shifted

    # -- the Woodbury-structured Newton system --------------------------------

    def _factorize(self, primal, duals, xs, shifted) -> tuple[tuple, np.ndarray | None]:
        """Factor the primal-dual Newton matrix once for this iteration.

        The matrix is ``M = D + U W U^T``: ``D = diag(f_diag + z/x)`` plus
        one dyad per cloud (weight ``cloud_scale + y_capacity/capacity``)
        and one per user (weight ``y_demand/demand``) over the indicator
        families. Its Sherman-Morrison-Woodbury core ``W^-1 + U^T D^-1 U``
        has a diagonal cloud block, a diagonal user block and ``D^-1`` as
        the cross block, so eliminating the users leaves the dense
        ``I x I`` Schur complement ``S = diag(rowsum(D^-1) + 1/w_cloud) -
        D^-1 diag(g) D^-T`` with ``g = 1/(colsum(D^-1) + 1/w_user)``. The
        user gains are kept negated (``gain = -g``), so ``S``'s dense part
        is one stacked matmul ``(D^-1 * gain) @ D^-T``. ``S`` is inverted
        once and applied to both the predictor and the corrector. Returns
        the factor tuple and a per-lane singular mask (``None`` when every
        lane inverted).
        """
        batch = xs.shape[0]
        ratio = duals / primal
        z_ratio = ratio[:, : self.n]
        dinv = 1.0 / (self.bmig / xs + z_ratio.reshape(xs.shape))
        # Inverse dyad weights: user weights y/d reach ~1e12 at binding
        # demand rows, their inverses d/y stay tame.
        cloud_inv_w = 1.0 / (self.creg / shifted + ratio[:, self._capacity])
        gain = -1.0 / (
            dinv.sum(axis=1, keepdims=True)
            + primal[:, None, self._demand] / duals[:, None, self._demand]
        )
        schur = (dinv * gain) @ dinv.transpose(0, 2, 1)
        diagonal = schur.reshape(batch, -1)[:, :: self.num_clouds + 1]
        diagonal += dinv.sum(axis=2) + cloud_inv_w
        singular = None
        try:
            inverse = np.linalg.inv(schur)
        except np.linalg.LinAlgError:
            # One singular lane poisons the whole gufunc call; redo the
            # stack lane by lane (same LAPACK routine on the same memory,
            # so surviving lanes get identical floats) and flag the bad
            # ones — they stall exactly as they would alone.
            inverse = np.zeros_like(schur)
            singular = np.zeros(batch, dtype=bool)
            for k in range(batch):
                try:
                    inverse[k] = np.linalg.inv(schur[k])
                except np.linalg.LinAlgError:
                    singular[k] = True
        capacity_coupling = (ratio[:, self._capacity] * cloud_inv_w)[:, :, None]
        return (dinv, gain, inverse, z_ratio, capacity_coupling), singular

    def _directions(self, factors: tuple, rhs: np.ndarray, neg_duals: tuple):
        """Solve ``M dx = rhs``; returns ``dx`` and the ``(B, 2m)`` step.

        ``q = W U^T dx`` solves the Woodbury core system by block
        elimination (clouds through the Schur inverse, then users); the
        core contractions ``D^-1 u``, ``S^-1 r`` and ``q^T D^-1`` are
        stacked matmuls, one BLAS call per lane on that lane's own
        matrices. The dual steps (before the complementarity targets,
        which the caller adds as ``t / primal``) eliminate through ``q``:
        ``dy_demand = -y_demand - q_user`` and ``dy_capacity = -y_capacity
        + (y_capacity/capacity) * q_cloud / w``. Re-forming ``(y/d) *
        colsum(dx)`` instead would amplify the rounding of ``colsum(dx)``
        by the ~1e12 weights of binding demand rows into the multipliers.
        """
        dinv, gain, inverse, z_ratio, capacity_coupling = factors
        scaled = dinv * rhs
        # ``user_part`` is -g * colsum(scaled); the gain carries the sign.
        user_part = gain * scaled.sum(axis=1, keepdims=True)
        q_cloud = inverse @ (
            scaled.sum(axis=2, keepdims=True) + dinv @ user_part.transpose(0, 2, 1)
        )
        q_user = gain * (q_cloud.transpose(0, 2, 1) @ dinv) - user_part
        dx = dinv * (rhs - (q_cloud + q_user))
        flat = dx.reshape(dx.shape[0], -1)
        neg_z, neg_demand, neg_capacity = neg_duals
        step = np.concatenate(
            [
                flat,
                dx.sum(axis=1),
                -dx.sum(axis=2),
                neg_z - z_ratio * flat,
                neg_demand - q_user[:, 0],
                neg_capacity + (capacity_coupling * q_cloud)[:, :, 0],
            ],
            axis=1,
        )
        return dx, step

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
        for lane in self.lanes:
            try:
                starts.append(lane.sub.interior_point())
            except Exception as exc:  # noqa: BLE001 - delivered per lane
                lane.outcome = exc
                continue
            ready.append(lane)
        self.lanes = ready
        if not ready:
            return
        self._stack_constants([lane.sub for lane in ready])
        x = _stack(starts, (self.n,)).reshape(-1, self.num_clouds, self.num_users)
        totals = x.sum(axis=2)
        primal = self._primal_pairs(x, totals)
        interior = primal.min(axis=1) > 0
        if not interior.all():
            # Rare: fail the boundary starts, then set up the rest again.
            for lane in itertools.compress(ready, ~interior):
                lane.outcome = SolverError(f"{self.name}: no strictly feasible start")
            self.lanes = list(itertools.compress(ready, interior))
            if self.lanes:
                self._setup()
            return
        value = self._objective_and_gradient(x, totals)[0]
        mu0 = np.maximum(1.0, np.abs(value)) / self.num_constraints
        self.x, self.totals, self.primal = x, totals, primal
        self.duals = mu0[:, None] / primal
        self.tol = np.array([max(lane.tol, _MIN_TOL) for lane in ready])
        self.iterations = np.zeros(len(ready), dtype=np.int64)
        self.stalled = np.zeros(len(ready), dtype=bool)

    # -- lane retirement ------------------------------------------------------

    def _retire(self, done, certified, fired, gap, scale, target, mu, value) -> None:
        """Finish the flagged lanes, then compact the stacked state.

        A lane converged if its gap certified, or if it stalled within
        ``_STALL_GAP``; a fired budget makes an uncertified lane a
        truncated partial result, and any other finished lane stopped
        unconverged. (A budget that fires on an already certified iterate
        changes nothing: the lane finishes as a normal result.)

        Iterates are strictly interior by construction, so a partial x —
        budget-truncated or unconverged — is always feasible: degraded in
        cost, never in constraints (Theorem 1 survives the cutoff). The
        duals are the iterate's own multipliers, so certificates re-derive
        the same gap bound the stop rule used. The reported objective is
        the one the stop rule scaled by, evaluated at the same iterate.
        """
        converged = certified | (self.stalled & (gap <= _STALL_GAP * scale))
        unconverged = ~(fired | converged)
        partial = (fired & ~certified) | unconverged
        relative_gap = gap / scale
        for pos in np.flatnonzero(done).tolist():
            lane = self.lanes[pos]
            iterations = int(self.iterations[pos])
            lane_mu = float(mu[pos])
            lane_gap = float(relative_gap[pos])
            lane.final = {
                "backend": self.name,
                "iterations": iterations,
                "mu": lane_mu,
                "gap": lane_gap,
                "gap_target": float(target[pos]),
                "partial": bool(partial[pos]),
                "unconverged": bool(unconverged[pos]),
            }
            duals = self.duals[pos].copy()
            lane.outcome = SolverResult(
                x=self.x[pos].ravel().copy(),
                objective=float(value[pos]),
                iterations=iterations,
                backend=self.name,
                duals={
                    "demand": duals[self._demand],
                    "capacity": duals[self._capacity],
                    "nonnegativity": duals[: self.n],
                    "mu": lane_mu,
                },
                partial=lane.final["partial"],
                gap=lane_gap,
            )
        keep = ~done
        self.lanes = list(itertools.compress(self.lanes, keep))
        if self.lanes:
            self._take(keep)

    # -- the lockstep loop ----------------------------------------------------

    def run(self, started: float | None = None) -> None:
        """Drive every lane to completion (outcomes land on the lanes);
        deadlines run from ``started`` (:func:`solve_batch`'s one clock).

        Each pass of the loop is one predictor-corrector step for every
        active lane. The iterate is assembled and certified first; lanes
        whose certified gap met the target, whose budget fired, or that
        cannot certify (stalled, non-finite gap, out of steps) retire with
        the current point, and the survivors take one Mehrotra step on one
        factorization. The affine (predictor) direction aims at zero
        complementarity; its step length sets the centring ``sigma =
        (mu_aff / mu)^3``, floored so the target never drops below
        ``_FLOOR_SHARE * target / m`` (deeper centring pushes the binding
        slacks under rounding). The corrector adds the predictor's
        second-order complementarity term. Both share one step length for
        primal and dual variables.

        The ``phase`` blocks are the profiling plane's phase timers
        (docs/OBSERVABILITY.md §12): free no-op context managers unless a
        profile is active, and purely observational either way — the
        floating-point operation sequence is identical with profiling on
        or off. They tile the loop, so together they account for the
        solve's wall time.
        """
        self._budget_start = time.perf_counter() if started is None else started
        with phase("ipm.setup"):
            self._setup()
        m = self.num_constraints
        while self.lanes:
            with phase("ipm.assemble"):
                x, primal, duals = self.x, self.primal, self.duals
                value, grad, xs, shifted = self._objective_and_gradient(x, self.totals)
                reduced = (
                    grad - duals[:, None, self._demand] + duals[:, self._capacity, None]
                )
                mu = np.vecdot(primal, duals) / m
            with phase("ipm.convergence_check"):
                fired = self._budget_fired()
                # The certificate's closed-form bound on f(x) - min P2 (see
                # diagnostics/certificates.py): reduced·x + y_demand·demand +
                # y_capacity·capacity + sum_i C_i max_j (-reduced_ij)+.
                paired = np.concatenate(
                    [reduced.reshape(len(x), -1), duals[:, self.n :]], axis=1
                )
                gap = np.vecdot(primal, paired) - np.vecdot(
                    self.capacities, reduced.min(axis=2, initial=0.0)
                )
                scale = np.maximum(1.0, np.abs(value))
                target = self.tol * scale
                certified = gap <= _GAP_SHARE * target
                # Lanes that cannot step on (stalled, non-finite gap, out of
                # steps) finish too; _retire sorts out which converged.
                done = (
                    certified
                    | fired
                    | self.stalled
                    | ~np.isfinite(gap)
                    | (self.iterations >= _MAX_ITERATIONS)
                )
                finishing = done.any()
            if finishing:
                with phase("ipm.finish"):
                    self._retire(done, certified, fired, gap, scale, target, mu, value)
                    if not self.lanes:
                        break
                    keep = ~done
                    x, primal, duals = self.x, self.primal, self.duals
                    grad, reduced, mu, target, xs, shifted = (
                        array[keep]
                        for array in (grad, reduced, mu, target, xs, shifted)
                    )
            with phase("ipm.factorize_smw"):
                factors, singular = self._factorize(primal, duals, xs, shifted)
                neg_grad = -grad
                negated = -duals
                neg_duals = (
                    negated[:, : self.n],
                    negated[:, self._demand],
                    negated[:, self._capacity],
                )
                dx, step = self._directions(factors, neg_grad, neg_duals)
            with phase("ipm.line_search"):
                pairs = np.concatenate([primal, duals], axis=1)
                alpha = _step_length(pairs, step, 1.0)
                trial = pairs + alpha[:, None] * step
                mu_affine = np.vecdot(trial[:, :m], trial[:, m:]) / m
                sigma = np.minimum(1.0, mu_affine / mu) ** _CENTERING_POWER
                centre = np.maximum(sigma * mu, _FLOOR_SHARE * target / m)
            with phase("ipm.factorize_smw"):
                # Corrector targets t = sigma*mu - d_primal_aff * d_duals_aff,
                # entering the right-hand side (and the dual steps) as t/primal.
                scaled_targets = (centre[:, None] - step[:, :m] * step[:, m:]) / primal
                rhs = (
                    scaled_targets[:, : self.n].reshape(x.shape)
                    + neg_grad
                    + scaled_targets[:, None, self._demand]
                    - scaled_targets[:, self._capacity, None]
                )
                dx, step = self._directions(factors, rhs, neg_duals)
                step[:, m:] += scaled_targets
            with phase("ipm.line_search"):
                alpha = _step_length(pairs, step, _BOUNDARY_FRACTION)
                stepped = self._advance(alpha, dx, step[:, m:], singular)
                self._record_trace(centre, mu, reduced, duals, alpha, stepped)

    def _budget_fired(self) -> np.ndarray:
        """Per-lane budget check, once per pass, after the iterate is assembled.

        A deadline therefore reads its clock after that pass's objective,
        gradient and ``mu``; an iteration budget sees the same count
        before or after assembly. A fired budget turns the lane into a partial result instead of an
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

    def _advance(self, alpha, dx, d_duals, singular) -> np.ndarray:
        """Move every lane ``alpha`` along its step; returns the lanes that moved.

        Recomputed slacks sum_i x_ij - lambda_j can round to <= 0 once
        they are within a few ulps of their row totals (tight tolerances
        on large workloads). Such a lane keeps its last interior iterate
        and is marked stalled, as is a singular one; the next convergence
        check retires it.
        """
        x_next = self.x + alpha[:, None, None] * dx
        duals_next = self.duals + alpha[:, None] * d_duals
        totals_next = x_next.sum(axis=2)
        primal_next = self._primal_pairs(x_next, totals_next)
        stepped = primal_next.min(axis=1) > 0
        if singular is not None:
            stepped &= ~singular
        if not stepped.all():
            x_next = np.where(stepped[:, None, None], x_next, self.x)
            totals_next = np.where(stepped[:, None], totals_next, self.totals)
            duals_next = np.where(stepped[:, None], duals_next, self.duals)
            primal_next = np.where(stepped[:, None], primal_next, self.primal)
            self.stalled = self.stalled | ~stepped
        self.x, self.totals = x_next, totals_next
        self.duals, self.primal = duals_next, primal_next
        self.iterations = self.iterations + stepped
        return stepped

    def _record_trace(self, centre, mu, reduced, duals, alpha, stepped) -> None:
        """Append one entry per stepped lane to its convergence fingerprint.

        The (centring target, complementarity, dual residual, step length)
        series is persisted to the manifest, so behavioural regressions
        show even when wall time does not (docs/DIAGNOSTICS.md). Lanes only
        keep it under a registry that keeps or streams events. ``reduced`` and ``duals`` are the
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
