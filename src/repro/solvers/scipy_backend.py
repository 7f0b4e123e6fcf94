"""Convex backend built on ``scipy.optimize.minimize(method="trust-constr")``.

This replaces the paper's IPOPT: ``trust-constr`` is an interior-point /
trust-region method that accepts the analytic gradients, sparse Hessians,
and sparse linear constraints the regularized subproblem P2 provides.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, minimize

from ..telemetry import get_registry
from .base import ConvexProgram, SolverError, SolverResult, starting_point


@dataclass(frozen=True)
class ScipyTrustConstrBackend:
    """trust-constr with analytic derivatives.

    Attributes:
        max_iterations: iteration cap passed to the optimizer.
        feasibility_tol: maximum allowed constraint violation of the result.
    """

    max_iterations: int = 2000
    feasibility_tol: float = 1e-6
    name: str = "scipy-trust-constr"

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
                "maxiter": self.max_iterations,
                "verbose": 0,
            },
            **kwargs,
        )
        x = np.asarray(result.x, dtype=float)
        violation = program.max_violation(x)
        if violation > self.feasibility_tol:
            raise SolverError(
                f"{self.name}: solution violates constraints by {violation:.3e} "
                f"(status={result.status}, message={result.message!r})"
            )
        # Clip the tiny residual violations so downstream feasibility checks
        # (and the entropy terms' logs) see a clean point.
        x = np.maximum(x, np.asarray(program.x_lower, dtype=float))
        duals: dict[str, np.ndarray] = {}
        v = getattr(result, "v", None)
        if v:
            packed = np.asarray(v[0], dtype=float)
            duals["linear"] = packed
            structure = program.structure
            num_users = getattr(structure, "num_users", None)
            num_clouds = getattr(structure, "num_clouds", None)
            if (
                num_users is not None
                and num_clouds is not None
                and packed.size == num_users + num_clouds
            ):
                # P2 stacks [J demand rows; I capacity rows] (see
                # RegularizedSubproblem.constraint_matrices); the capacity
                # family was written as -X >= -C, so its multipliers come
                # back negated. Exposing the split by name lets the
                # diagnostics/pricing layers treat both backends uniformly.
                duals["demand"] = np.abs(packed[:num_users])
                duals["capacity"] = np.abs(packed[num_users:])
        iterations = int(getattr(result, "nit", 0) or 0)
        telemetry = get_registry()
        telemetry.counter("solver.scipy.solves").inc()
        telemetry.counter("solver.iterations").inc(iterations)
        telemetry.histogram("solver.scipy.iterations").observe(iterations)
        return SolverResult(
            x=x,
            objective=float(program.objective(x)),
            iterations=iterations,
            backend=self.name,
            duals=duals,
        )
