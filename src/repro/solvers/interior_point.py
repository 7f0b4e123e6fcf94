"""A structured primal-dual interior-point solver for the P2 subproblem.

The paper solved P2 with IPOPT, a primal-dual interior-point method. This
backend is a from-scratch Mehrotra predictor-corrector method specialized
to P2's structure, which makes every step cheap:

* the objective Hessian is ``diag(d) + sum_i sigma_i 1_i 1_i^T`` where
  ``1_i`` is the indicator of cloud *i*'s variables (the entropy term on the
  per-cloud total is a rank-one block of ones);
* every constraint row is a +/-1 indicator: demand rows select one user's
  variables across clouds, capacity rows select one cloud's variables;
  after eliminating the multipliers, their blocks of the primal-dual
  Newton matrix are rank-one dyads over the same indicator families
  (weights ``y/slack``), and the bound duals only add ``z/x`` to the
  diagonal.

The Newton matrix is therefore diagonal plus ``I + J`` dyads (capacity
dyads merge with the objective's cloud dyads), so each step inverts the
``I x I`` Schur complement of a Sherman-Morrison-Woodbury core of size
(I + J) — whose user block is diagonal — instead of an (I*J) x (I*J)
matrix, and reuses it for the predictor and the corrector. All dyad inner
products reduce to row sums, column sums, and single entries of an (I, J)
table. Solves stop on a certified duality gap; typical P2 instances take
about 10 steps.

The kernel itself lives in :mod:`repro.solvers.batched`; a solve here is
the one-lane case of that lockstep kernel, so a program solved alone and
the same program solved in a stacked batch give identical floats.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..telemetry import current_trace, get_registry
from .base import ConvexProgram, SolverResult
from .batched import BATCHED_BACKEND_NAME, _GroupSolve, _Lane


@dataclass(frozen=True)
class InteriorPointBackend:
    """Structured primal-dual method for programs built by ``RegularizedSubproblem``.

    The allocator's default backend.
    """

    name: str = BATCHED_BACKEND_NAME

    def solve(self, program: ConvexProgram, *, tol: float = 1e-8) -> SolverResult:
        """Solve to a certified duality gap of at most ~0.1 * tol * max(1, |f|).

        Two kinds of result can carry a looser gap, and ``result.gap`` (the
        gap actually certified, relative to ``max(1, |f|)``) tells them
        apart. A ``result.partial`` solve stopped at its current strictly
        interior iterate without certifying: its budget fired, or it could
        not certify (slacks at float64 rounding, a singular Woodbury
        system, or 100 steps). A solve whose slacks reached rounding with
        a gap of at most 1e-6 (the certificate tolerance) is accepted as
        converged. Raises only when the slot has no strict interior
        (``ValueError``: total capacity must exceed total workload).
        """
        # A one-lane lockstep solve, deliberately not routed through
        # solve_batch(): the solver.batched.* counters count stacked calls.
        lane = _Lane(program, tol, get_registry(), current_trace())
        _GroupSolve([lane], name=self.name).run()
        lane.emit_telemetry()
        if isinstance(lane.outcome, Exception):
            raise lane.outcome
        return lane.outcome
