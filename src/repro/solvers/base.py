"""Solver interfaces shared by the LP and convex backends.

The paper modeled its programs in Pyomo and solved them with IPOPT/GLPK.
Neither is available offline, so this package provides the equivalent
substrate: a sparse LP layer on top of SciPy's HiGHS, and a structured
primal-dual interior-point method for the regularized subproblem P2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Protocol

import numpy as np

if TYPE_CHECKING:  # core builds on solvers
    from ..core.subproblem import RegularizedSubproblem


class SolverError(RuntimeError):
    """Raised when a backend cannot produce a solution of acceptable quality."""


@dataclass(frozen=True)
class SolveBudget:
    """A best-effort cap on how much work one solve may do.

    Budgets exist for the live service (docs/SERVING.md): a slot must be
    decided before its deadline, so a solve that would converge late is
    cut off and its current *strictly interior* iterate returned
    as a partial result instead. Both limits are optional and compose
    (whichever fires first wins); a ``None`` budget — the default
    everywhere — changes nothing, which is what keeps batch
    ``simulate()`` bit-identical with budgets disabled.

    Attributes:
        deadline_s: wall-clock seconds from the start of the solve. The
            check runs between iterations, so overshoot is bounded by one
            iteration, not one solve.
        max_iterations: cap on iterations (one predictor-corrector step
            each for the structured IPM).
    """

    deadline_s: float | None = None
    max_iterations: int | None = None

    def exhausted(self, *, elapsed_s: float, iterations: int) -> bool:
        """True once either limit has been reached."""
        if self.deadline_s is not None and elapsed_s >= self.deadline_s:
            return True
        if self.max_iterations is not None and iterations >= self.max_iterations:
            return True
        return False


@dataclass(frozen=True)
class SolverResult:
    """Outcome of one solve.

    Attributes:
        x: the (flattened) primal solution.
        objective: objective value at ``x``.
        iterations: iterations the backend reports (0 when unavailable).
        backend: name of the backend that produced the result.
        duals: optional mapping of constraint-family name -> multipliers.
        partial: ``True`` when ``x`` is the last (feasible) iterate rather
            than a converged optimum: a :class:`SolveBudget` fired, or the
            solver stopped without certifying its gap.
        gap: the duality-gap bound at ``x``, relative to ``max(1, |f(x)|)``,
            that the backend certified from its own ``duals``; ``None`` when
            the backend does not compute one.
    """

    x: np.ndarray
    objective: float
    iterations: int = 0
    backend: str = ""
    duals: dict[str, np.ndarray] = field(default_factory=dict)
    partial: bool = False
    gap: float | None = None


@dataclass
class ConvexProgram:
    """One P2 solve request: the subproblem and an optional work cap.

    The structured IPM reads all of P2 from ``structure`` — prices,
    capacities, workloads, the interior start — so nothing else is carried.

    Attributes:
        structure: the :class:`repro.core.subproblem.RegularizedSubproblem`
            to minimize.
        budget: optional work cap (see :class:`SolveBudget`); a backend
            returns ``SolverResult(partial=True)`` when it fires.
    """

    structure: RegularizedSubproblem
    budget: SolveBudget | None = None


class ConvexBackend(Protocol):
    """A solver capable of minimizing a :class:`ConvexProgram`."""

    name: str

    def solve(self, program: ConvexProgram, *, tol: float = 1e-8) -> SolverResult:
        """Minimize the program to tolerance ``tol``; raise SolverError on failure."""
        ...
