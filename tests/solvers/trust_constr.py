"""A general-purpose P2 oracle for tests: ``scipy.optimize`` trust-constr.

The structured interior-point method is the only P2 solver in ``src/``.
Tests and the solver ablation benchmark cross-check it against this
independent method on small programs: trust-constr is an interior-point /
trust-region method that takes the analytic gradients, sparse Hessians and
sparse linear constraints a :class:`~repro.solvers.base.ConvexProgram`
carries, and knows nothing of P2's structure. It records no telemetry.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, minimize

from repro.solvers.base import ConvexProgram, SolverError, SolverResult

#: Iteration cap passed to the optimizer.
MAX_ITERATIONS = 2000
#: Largest constraint violation accepted in a returned solution.
FEASIBILITY_TOL = 1e-6


def starting_point(program: ConvexProgram) -> np.ndarray:
    """A usable starting point for a program whose ``x0`` may be ``None``.

    Preference order: the program's own ``x0``; the structure's canonical
    strictly interior point (P2 programs); the variable lower bounds (a
    feasible-for-bounds default that generic methods can work from).
    """
    if program.x0 is not None:
        return np.asarray(program.x0, dtype=float)
    structure = program.structure
    if structure is not None and hasattr(structure, "interior_point"):
        return np.asarray(structure.interior_point(), dtype=float)
    return np.asarray(program.x_lower, dtype=float).copy()


class TrustConstrOracle:
    """trust-constr with analytic derivatives, as a ``ConvexBackend``."""

    name = "scipy-trust-constr"

    def solve(self, program: ConvexProgram, *, tol: float = 1e-8) -> SolverResult:
        """Minimize with trust-constr; validates and clips the solution."""
        constraints = []
        if program.num_constraints:
            constraints.append(
                LinearConstraint(
                    program.constraint_matrix,
                    lb=np.asarray(program.constraint_lower, dtype=float),
                    ub=np.inf,
                )
            )
        bounds = Bounds(
            lb=np.asarray(program.x_lower, dtype=float),
            ub=np.full(program.num_variables, np.inf),
        )
        kwargs: dict[str, object] = {}
        if program.hessian is not None:
            kwargs["hess"] = program.hessian
        # trust-constr tolerates infeasible starts (it restores feasibility
        # itself), so a caller's x0 needs no projection here.
        result = minimize(
            program.objective,
            starting_point(program),
            jac=program.gradient,
            bounds=bounds,
            constraints=constraints,
            method="trust-constr",
            options={
                "gtol": tol,
                "xtol": tol,
                "maxiter": MAX_ITERATIONS,
                "verbose": 0,
            },
            **kwargs,
        )
        x = np.asarray(result.x, dtype=float)
        violation = program.max_violation(x)
        if violation > FEASIBILITY_TOL:
            raise SolverError(
                f"{self.name}: solution violates constraints by {violation:.3e} "
                f"(status={result.status}, message={result.message!r})"
            )
        # Clip the tiny residual violations so downstream feasibility checks
        # (and the entropy terms' logs) see a clean point.
        x = np.maximum(x, np.asarray(program.x_lower, dtype=float))
        return SolverResult(
            x=x,
            objective=float(program.objective(x)),
            iterations=int(getattr(result, "nit", 0) or 0),
            backend=self.name,
        )
