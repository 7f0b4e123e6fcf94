"""A general-purpose P2 oracle for tests: ``scipy.optimize`` trust-constr.

The structured interior-point method is the only P2 solver in ``src/``.
Tests and the solver ablation benchmark cross-check it against this
independent method on small programs: trust-constr is an interior-point /
trust-region method that knows nothing of P2's structure. The oracle
builds its generic inputs from ``program.structure`` here — the demand and
capacity rows from the workloads and capacities, a dense Hessian from
:func:`hessian_factors`, the start from ``interior_point()`` — and records no
telemetry.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, minimize

from repro.core.subproblem import RegularizedSubproblem, _safe
from repro.solvers.base import ConvexProgram, SolverError, SolverResult

#: Iteration cap passed to the optimizer.
MAX_ITERATIONS = 2000
#: Largest constraint violation accepted in a returned solution.
FEASIBILITY_TOL = 1e-6


def constraint_rows(sub: RegularizedSubproblem) -> tuple[sparse.csr_matrix, np.ndarray]:
    """(A, lower) with A x >= lower for demand (10a) and direct capacity.

    Demand row j has ones at columns ``i * J + j``; capacity row i has -1
    on cloud i's columns (``-X_i >= -C_i``).
    """
    num_clouds, num_users = sub.num_clouds, sub.num_users
    n = num_clouds * num_users
    demand = sparse.coo_matrix(
        (np.ones(n), (np.tile(np.arange(num_users), num_clouds), np.arange(n))),
        shape=(num_users, n),
    )
    capacity = sparse.coo_matrix(
        (-np.ones(n), (np.repeat(np.arange(num_clouds), num_users), np.arange(n))),
        shape=(num_clouds, n),
    )
    lower = np.concatenate(
        [
            np.asarray(sub.workloads, dtype=float),
            -np.asarray(sub.capacities, dtype=float),
        ]
    )
    return sparse.vstack([demand, capacity]).tocsr(), lower


def hessian_factors(
    sub: RegularizedSubproblem, flat: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """P2's structured Hessian at ``flat`` as ``(diag, cloud_scale)``.

    ``H = diag(diag) + sum_i cloud_scale[i] * 1_i 1_i^T``, where ``1_i`` is
    the indicator of cloud i's variables: the structure the interior-point
    kernel's Woodbury solve exploits (it forms the same factors stacked
    across lanes).
    """
    x = np.asarray(flat, dtype=float).reshape(sub.num_clouds, sub.num_users)
    diag = (
        np.asarray(sub.migration_prices)[:, None]
        / sub.tau[None, :]
        / _safe(x + sub.eps2)
    ).ravel()
    cloud_totals = x.sum(axis=1)
    creg = np.asarray(sub.reconfig_prices) / sub.eta
    return diag, creg / _safe(cloud_totals + sub.eps1)


def dense_hessian(sub: RegularizedSubproblem, flat: np.ndarray) -> np.ndarray:
    """``diag(d) + sum_i s_i 1_i 1_i^T`` from :func:`hessian_factors`, dense."""
    diag, cloud_scale = hessian_factors(sub, flat)
    blocks = np.kron(np.diag(cloud_scale), np.ones((sub.num_users, sub.num_users)))
    return blocks + np.diag(diag)


def max_violation(sub: RegularizedSubproblem, flat: np.ndarray) -> float:
    """Worst violation of demand, capacity and ``x >= 0`` at a point."""
    x = np.asarray(flat, dtype=float).reshape(sub.num_clouds, sub.num_users)
    demand = np.asarray(sub.workloads, dtype=float) - x.sum(axis=0)
    capacity = x.sum(axis=1) - np.asarray(sub.capacities, dtype=float)
    return max(0.0, float(demand.max()), float(capacity.max()), float(-x.min()))


def starting_point(program: ConvexProgram) -> np.ndarray:
    """The structure's canonical strictly interior point."""
    return np.asarray(program.structure.interior_point(), dtype=float)


class TrustConstrOracle:
    """trust-constr with analytic derivatives, as a ``ConvexBackend``."""

    name = "scipy-trust-constr"

    def solve(self, program: ConvexProgram, *, tol: float = 1e-8) -> SolverResult:
        """Minimize with trust-constr; validates and clips the solution."""
        sub = program.structure
        matrix, lower = constraint_rows(sub)
        n = sub.num_clouds * sub.num_users
        result = minimize(
            sub.objective,
            starting_point(program),
            jac=sub.gradient,
            hess=lambda flat: dense_hessian(sub, flat),
            bounds=Bounds(lb=np.zeros(n), ub=np.full(n, np.inf)),
            constraints=[LinearConstraint(matrix, lb=lower, ub=np.inf)],
            method="trust-constr",
            options={
                "gtol": tol,
                "xtol": tol,
                "maxiter": MAX_ITERATIONS,
                "verbose": 0,
            },
        )
        x = np.asarray(result.x, dtype=float)
        violation = max_violation(sub, x)
        if violation > FEASIBILITY_TOL:
            raise SolverError(
                f"{self.name}: solution violates constraints by {violation:.3e} "
                f"(status={result.status}, message={result.message!r})"
            )
        # Clip the tiny residual violations so downstream feasibility checks
        # (and the entropy terms' logs) see a clean point.
        x = np.maximum(x, 0.0)
        return SolverResult(
            x=x,
            objective=float(sub.objective(x)),
            iterations=int(getattr(result, "nit", 0) or 0),
            backend=self.name,
        )
