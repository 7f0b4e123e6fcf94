"""Per-slot optimality certificates for the P2 subproblem.

The online algorithm's guarantee (Theorem 2) assumes every per-slot
subproblem P2 is solved *optimally*. This module measures how true that is
at runtime, turning each solve into a :class:`SlotCertificate` carrying

* the **KKT stationarity residual** (paper eq. 15a) — how far the reduced
  gradient ``g = grad f - theta + rho`` is from satisfying dual
  feasibility and complementarity (see
  :meth:`repro.core.subproblem.RegularizedSubproblem.kkt_stationarity_residual`);
* a **rigorous duality-gap bound**: for any multipliers ``theta, rho >= 0``
  and any feasible ``x``, convexity of f gives, for every feasible ``y``
  (which satisfies ``0 <= y_ij`` and ``sum_j y_ij <= C_i``),

      f(y) >= f(x) + grad(x)·(y - x)
           >= f(x) - [ g·x + theta·s_demand + rho·s_capacity
                       + sum_i C_i max_j (-g_ij)+ ]

  where ``s_demand = sum_i x_ij - lambda_j`` and ``s_capacity = C_i -
  sum_j x_ij`` are the constraint slacks at ``x`` (the last term bounds
  ``sum_j (-g_ij) y_ij`` per cloud, since cloud i's row of y sums to at
  most ``C_i``). The bracket is therefore a certified upper bound on
  ``f(x) - min P2``. At an interior-point optimum every term is of order
  mu, so the bound collapses to ``~ mu * m`` — the solver's own
  termination target.

Multipliers come from three sources, cheapest first, and the certificate
keeps whichever bound is tightest:

1. ``"solver"`` — the backend's own duals (the structured IPM reports
   the demand/capacity families, see ``SolverResult.duals``); its primal-dual
   multipliers are the ones its own stop rule certified, so this source
   normally wins;
2. ``"recovered"`` — a least-squares fit of the stationarity system over
   the support, the same construction Lemma 2's dual argument uses;
3. ``"lp"`` — the exact duals of the *linearized* subproblem
   ``min grad(x)·y`` over the feasible set (one small HiGHS solve, only
   run when the cheap sources stay above the target tolerance). With
   these multipliers the closed-form bound equals the Frank-Wolfe gap
   ``grad·x - min_y grad·y``, the tightest certificate one gradient can
   buy.

Everything here *observes* — no certificate feeds back into any
computation, so runs are bit-identical with certification on or off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.duality import recover_multipliers
from ..core.subproblem import RegularizedSubproblem
from ..solvers.base import SolverResult
from ..telemetry import get_registry

#: Default acceptance threshold on the *relative* duality gap; the IPM
#: terminates at gap ~ tol * scale with tol = 1e-8, so 1e-6 gives two
#: orders of headroom while still catching genuinely unconverged solves.
DEFAULT_GAP_TOL = 1e-6


@dataclass(frozen=True)
class SlotCertificate:
    """Optimality evidence for one P2 solve.

    Attributes:
        slot: trajectory position of the solve (0-based).
        objective: P2 objective value at the certified point.
        kkt_residual: stationarity/complementarity residual (eq. 15a form).
        duality_gap: certified upper bound on ``f(x) - min P2`` (absolute).
        relative_gap: ``duality_gap / max(1, |objective|)``.
        backend: solver backend that produced the point.
        source: where the multipliers came from — ``"solver"`` (backend
            duals), ``"recovered"`` (least-squares fit from the primal),
            or ``"lp"`` (exact duals of the linearized subproblem).
        solver_gap: the relative gap certified by the backend's own duals
            alone (``None`` when the result carries none) — whether the
            solver's stop rule certified its point, whichever source won.
    """

    slot: int
    objective: float
    kkt_residual: float
    duality_gap: float
    relative_gap: float
    backend: str = ""
    source: str = "solver"
    solver_gap: float | None = None

    def ok(self, tol: float = DEFAULT_GAP_TOL) -> bool:
        """Whether the relative duality gap is within ``tol``."""
        return self.relative_gap <= tol


def lp_multipliers(
    subproblem: RegularizedSubproblem, flat: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Exact duals of the linearized subproblem ``min grad(x)·y``.

    Solves the transportation-style LP over the feasible set (one HiGHS
    call at I x J size) and reads the constraint marginals back as
    ``(theta, rho)``; they are HiGHS's row duals, taken straight from the
    solver, so they are always present. Plugged into
    :func:`duality_gap_bound`, these multipliers realize the Frank-Wolfe
    gap ``grad·x - min_y grad·y`` — the tightest bound obtainable from one
    gradient evaluation — at the price of the LP solve, so
    :func:`certify_solution` only escalates to them when the cheaper
    multiplier sources stay loose.
    """
    from ..solvers.linear import LinearProgramBuilder

    num_clouds, num_users = subproblem.num_clouds, subproblem.num_users
    grad = subproblem.gradient(np.asarray(flat, dtype=float))
    builder = LinearProgramBuilder()
    indices = builder.add_block("y", num_clouds, num_users).indices()
    builder.set_cost(indices, grad)
    builder.add_le_rows(
        indices, 1.0, np.asarray(subproblem.capacities, dtype=float)
    )
    builder.add_ge_rows(
        indices.T, 1.0, np.asarray(subproblem.workloads, dtype=float)
    )
    marginals = builder.solve().duals["inequality"]
    # Row order: capacity (<=) rows first, then the negated demand rows;
    # HiGHS marginals are <= 0 for both, so negate into the dual cone.
    rho = np.maximum(-marginals[:num_clouds], 0.0)
    theta = np.maximum(-marginals[num_clouds:], 0.0)
    return theta, rho


def duality_gap_bound(
    subproblem: RegularizedSubproblem,
    flat: np.ndarray,
    theta: np.ndarray,
    rho: np.ndarray,
) -> float:
    """Certified upper bound on ``f(x) - min P2`` (see module docstring).

    Valid for any ``theta, rho >= 0`` and any (near-)feasible ``x``; tiny
    constraint violations at solver tolerance only perturb the bound at
    the same order. Never negative.
    """
    num_clouds, num_users = subproblem.num_clouds, subproblem.num_users
    x = np.asarray(flat, dtype=float).reshape(num_clouds, num_users)
    grad = subproblem.gradient(flat).reshape(num_clouds, num_users)
    theta = np.asarray(theta, dtype=float)
    rho = np.asarray(rho, dtype=float)
    g = grad - theta[None, :] + rho[:, None]
    workloads = np.asarray(subproblem.workloads, dtype=float)
    capacities = np.asarray(subproblem.capacities, dtype=float)
    slack_demand = np.maximum(x.sum(axis=0) - workloads, 0.0)
    slack_capacity = np.maximum(capacities - x.sum(axis=1), 0.0)
    gap = float((g * x).sum())
    gap += float(theta @ slack_demand) + float(rho @ slack_capacity)
    # Per cloud, any feasible y spends at most C_i across its row, so the
    # worst negative reduced gradient of the row bounds the whole row.
    gap += float(capacities @ np.maximum(-g, 0.0).max(axis=1))
    return max(gap, 0.0)


def certify_solution(
    subproblem: RegularizedSubproblem,
    solution: SolverResult | np.ndarray,
    *,
    slot: int = 0,
) -> SlotCertificate:
    """Build the optimality certificate for one solved subproblem.

    Args:
        subproblem: the P2 instance that was solved.
        solution: the backend's :class:`SolverResult` or a bare flattened
            primal point. Backend duals (when the result names the
            demand/capacity families) and least-squares recovered
            multipliers are both tried; the certificate keeps whichever
            bound is tighter (``source`` records the winner).
        slot: trajectory position recorded on the certificate.
    """
    if isinstance(solution, SolverResult):
        flat = np.asarray(solution.x, dtype=float)
        duals = solution.duals
        backend = solution.backend
    else:
        flat = np.asarray(solution, dtype=float)
        duals = {}
        backend = ""
    # Candidate multipliers, cheapest first: the backend's own (when it
    # names the demand/capacity families), then the least-squares recovery
    # from the primal. Every candidate yields a *valid* bound, so keep
    # whichever certifies tighter; when both stay above the target
    # tolerance, escalate to the linearized-LP duals (Frank-Wolfe gap).
    candidates: list[tuple[np.ndarray, np.ndarray, str]] = []
    if "demand" in duals and "capacity" in duals:
        candidates.append(
            (
                np.maximum(np.asarray(duals["demand"], dtype=float), 0.0),
                np.maximum(np.asarray(duals["capacity"], dtype=float), 0.0),
                "solver",
            )
        )
    candidates.append((*recover_multipliers(subproblem, flat), "recovered"))
    objective = float(subproblem.objective(flat))
    scale = max(1.0, abs(objective))
    scored = [
        (duality_gap_bound(subproblem, flat, th, rh), th, rh, src)
        for th, rh, src in candidates
    ]
    solver_gap = next(
        (entry[0] / scale for entry in scored if entry[3] == "solver"), None
    )
    gap, theta, rho, source = min(scored, key=lambda entry: entry[0])
    if gap > DEFAULT_GAP_TOL * scale:
        theta_lp, rho_lp = lp_multipliers(subproblem, flat)
        gap_lp = duality_gap_bound(subproblem, flat, theta_lp, rho_lp)
        if gap_lp < gap:
            gap, theta, rho, source = gap_lp, theta_lp, rho_lp, "lp"
    return SlotCertificate(
        slot=slot,
        objective=objective,
        kkt_residual=subproblem.kkt_stationarity_residual(flat, theta, rho),
        duality_gap=gap,
        relative_gap=gap / max(1.0, abs(objective)),
        backend=backend,
        source=source,
        solver_gap=solver_gap,
    )


def record_certificate(certificate: SlotCertificate, registry=None) -> None:
    """Emit a certificate into the (active) telemetry registry.

    Records the ``diag.kkt.residual`` and ``diag.duality_gap`` histograms
    (the latter observes the *relative* gap, the quantity thresholds apply
    to) and one ``diag.certificate`` manifest event. A no-op under the
    null registry.
    """
    registry = registry if registry is not None else get_registry()
    if not registry.enabled:
        return
    registry.histogram("diag.kkt.residual").observe(certificate.kkt_residual)
    registry.histogram("diag.duality_gap").observe(certificate.relative_gap)
    payload = {
        "slot": certificate.slot,
        "objective": certificate.objective,
        "kkt_residual": certificate.kkt_residual,
        "duality_gap": certificate.duality_gap,
        "relative_gap": certificate.relative_gap,
        "backend": certificate.backend,
        "source": certificate.source,
    }
    registry.event("diag.certificate", **payload)


def worst_certificate(
    certificates: Sequence[SlotCertificate],
) -> SlotCertificate | None:
    """The certificate with the largest relative gap (``None`` when empty)."""
    if not certificates:
        return None
    return max(certificates, key=lambda certificate: certificate.relative_gap)
