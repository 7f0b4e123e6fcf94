"""Solver interfaces shared by the LP and convex backends.

The paper modeled its programs in Pyomo and solved them with IPOPT/GLPK.
Neither is available offline, so this package provides the equivalent
substrate: a sparse LP layer on top of SciPy's HiGHS, and a structured
primal-dual interior-point method for the regularized subproblem P2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Protocol

import numpy as np
from scipy import sparse


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
    """min f(x) s.t. A x >= lower, x >= x_lower (all constraints linear).

    ``hessian`` may return any scipy-sparse matrix or dense array; backends
    that cannot use second-order information ignore it.

    Attributes:
        objective: f(x) -> float, convex and differentiable on the feasible set.
        gradient: grad f(x) -> (n,).
        hessian: optional hess f(x) -> (n, n) sparse/dense.
        constraint_matrix: (M, n) sparse matrix A.
        constraint_lower: (M,) lower bounds for A x.
        x_lower: (n,) variable lower bounds (typically zeros).
        x0: optional starting point for generic methods. It need not be
            strictly feasible — backends must recover, not crash, when it
            is not. The structured IPM ignores it and always cold-starts
            from the structure's interior point.
    """

    objective: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    constraint_matrix: sparse.spmatrix
    constraint_lower: np.ndarray
    x_lower: np.ndarray
    x0: np.ndarray | None = None
    hessian: Callable[[np.ndarray], object] | None = None
    #: Optional problem-specific structure (e.g. the P2 subproblem) that
    #: specialized backends can exploit; generic backends ignore it.
    structure: object | None = None
    #: Optional work cap (see :class:`SolveBudget`). Backends that honor
    #: it return ``SolverResult(partial=True)`` when it fires; backends
    #: that cannot interrupt themselves ignore it, so the budget is
    #: best-effort by contract.
    budget: SolveBudget | None = None

    @property
    def num_variables(self) -> int:
        if self.x0 is not None:
            return int(np.asarray(self.x0).size)
        return int(np.asarray(self.x_lower).size)

    @property
    def num_constraints(self) -> int:
        return int(np.asarray(self.constraint_lower).size)

    def constraint_slack(self, x: np.ndarray) -> np.ndarray:
        """A x - lower (negative entries = violated constraints)."""
        return np.asarray(self.constraint_matrix @ x) - np.asarray(self.constraint_lower)

    def max_violation(self, x: np.ndarray) -> float:
        """Worst violation across linear constraints and variable bounds."""
        slack = self.constraint_slack(x)
        bound = np.asarray(self.x_lower) - np.asarray(x)
        worst = 0.0
        if slack.size:
            worst = max(worst, float(-slack.min()))
        if bound.size:
            worst = max(worst, float(bound.max()))
        return max(worst, 0.0)


class ConvexBackend(Protocol):
    """A solver capable of minimizing a :class:`ConvexProgram`."""

    name: str

    def solve(self, program: ConvexProgram, *, tol: float = 1e-8) -> SolverResult:
        """Minimize the program to tolerance ``tol``; raise SolverError on failure."""
        ...
