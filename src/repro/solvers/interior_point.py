"""A structured log-barrier interior-point solver for the P2 subproblem.

The paper solved P2 with IPOPT. This backend is a from-scratch replacement
specialized to P2's structure, which makes every Newton step cheap:

* the objective Hessian is ``diag(d) + sum_i sigma_i 1_i 1_i^T`` where
  ``1_i`` is the indicator of cloud *i*'s variables (the entropy term on the
  per-cloud total is a rank-one block of ones);
* every constraint row is a +/-1 indicator: demand rows select one user's
  variables across clouds, capacity rows select one cloud's variables;
  their barrier Hessians are therefore rank-one dyads over the same
  indicator families.

The full barrier Hessian is diagonal plus ``I + J`` dyads (capacity dyads
merge with the objective's cloud dyads), so Newton directions come from a
Sherman-Morrison-Woodbury solve with a dense system of size (I + J) instead
of factoring an (I*J) x (I*J) matrix. All dyad inner products reduce to row
sums, column sums, and single entries of an (I, J) table.

The barrier kernel itself lives in :mod:`repro.solvers.batched`; a solve
here is the one-lane case of that lockstep kernel, so a program solved
alone and the same program solved in a stacked batch give identical floats.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..telemetry import current_trace, get_registry
from .base import ConvexProgram, SolverError, SolverResult
from .batched import BATCHED_BACKEND_NAME, _GroupSolve, _Lane


@dataclass(frozen=True)
class InteriorPointBackend:
    """Structured barrier method for programs built by ``RegularizedSubproblem``.

    Requires ``program.structure`` to be a
    :class:`repro.core.subproblem.RegularizedSubproblem`; raises
    :class:`SolverError` otherwise (the registry then falls back to the
    generic SciPy backend).
    """

    name: str = BATCHED_BACKEND_NAME

    def solve(self, program: ConvexProgram, *, tol: float = 1e-8) -> SolverResult:
        """Run the barrier method to duality gap ~ tol * max(1, |f|)."""
        structure = program.structure
        if structure is None or not hasattr(structure, "hessian_factors"):
            raise SolverError(
                f"{self.name} requires a program with RegularizedSubproblem structure"
            )
        # A one-lane lockstep solve, deliberately not routed through
        # solve_batch(): the solver.batched.* counters count stacked calls.
        lane = _Lane(program, structure, tol, get_registry(), current_trace())
        _GroupSolve([lane], name=self.name).run()
        lane.emit_telemetry()
        if isinstance(lane.outcome, Exception):
            raise lane.outcome
        return lane.outcome
