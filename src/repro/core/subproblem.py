"""The regularized per-slot subproblem P2 (paper Section III-B, eq. 10).

Given the previous slot's optimal allocation x*_{t-1}, the online algorithm
solves

    min  sum_ij p_ij x_ij                                  (static prices)
       + sum_i (c_i/eta_i) [ (X_i+eps1) ln (X_i+eps1)/(X'_i+eps1) - X_i ]
       + sum_ij (b_i/tau_j) [ (x_ij+eps2) ln (x_ij+eps2)/(x'_ij+eps2) - x_ij ]
    s.t. sum_i x_ij >= lambda_j   for every user j                (10a)
         sum_j x_ij <= C_i        for every cloud i    (capacity, see below)
         x_ij >= 0                                                 (10c)

where p_ij = w_s (a_{i,t} + d(l_{j,t}, i)/lambda_j), X_i = sum_j x_ij,
eta_i = ln(1 + C_i/eps1), tau_j = ln(1 + lambda_j/eps2), and c_i, b_i are
the (dynamic-weighted) reconfiguration price and combined migration price.

The relative-entropy terms are the regularization of the non-smooth (.)+
dynamic costs; their gradients are the logarithmic "price of change" that
makes the algorithm provably competitive.

The paper writes the capacity constraint in the complement form (10b),
``sum_{k != i} X_k >= Lambda - C_i``, and argues (Theorem 1) that optima
respect ``X_i <= C_i`` anyway because the demand constraint binds. That
argument fails under the entropy regularizer's *decrease* penalty (holding
stale allocation can beat paying the static price, so total allocation can
exceed total demand and a cloud can exceed its capacity while (10b) still
holds). We therefore enforce capacity directly as ``sum_j x_ij <= C_i``.
The two forms agree on the region Theorem 1 argues the optimum lives in
(demand binding), and the direct form makes feasibility of the online
trajectory structural rather than argumentative. The solver keeps both
families as slack pairs (``solvers/batched.py:_GroupSolve._primal_pairs``);
see DESIGN.md.

Variables are flattened cloud-major: ``flat[i * J + j] = x[i, j]``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..solvers.base import ConvexProgram
from .bounds import eta as eta_fn
from .bounds import tau as tau_fn
from .problem import ProblemInstance
from .transformation import combined_migration_prices

#: Relative slack (>1) used to construct a strictly feasible starting point.
_INTERIOR_MARGIN = 1.05

#: Floor applied inside logarithms so that trial points slightly outside the
#: feasible region (some optimizers evaluate them) yield finite values.
_LOG_FLOOR = 1e-12


def _safe(values: np.ndarray | float) -> np.ndarray:
    """Clamp log arguments away from zero; identity on the feasible region."""
    return np.maximum(values, _LOG_FLOOR)


@dataclass(frozen=True)
class RegularizedSubproblem:
    """P2 for one time slot, ready to hand to any convex backend.

    Attributes:
        static_prices: (I, J) effective static prices p_ij (already weighted).
        reconfig_prices: (I,) dynamic-weighted reconfiguration prices c_i.
        migration_prices: (I,) dynamic-weighted combined prices b_i.
        capacities: (I,) cloud capacities C_i.
        workloads: (J,) user workloads lambda_j.
        x_prev: (I, J) previous slot's allocation x*_{t-1}.
        eps1: the reconfiguration regularization parameter (scalar).
        eps2: the migration regularization parameter — a scalar, or a (J,)
            vector giving each column its own smoothing width. The vector
            form is what makes the cohort-reduced P2 of
            :mod:`repro.aggregate` exact for uniform cohorts: a column
            standing for ``n`` merged users carries ``n * eps2``, so its
            entropy term equals the sum of the members' entropy terms.
    """

    static_prices: np.ndarray
    reconfig_prices: np.ndarray
    migration_prices: np.ndarray
    capacities: np.ndarray
    workloads: np.ndarray
    x_prev: np.ndarray
    eps1: float
    eps2: float | np.ndarray

    def __post_init__(self) -> None:
        num_clouds, num_users = np.asarray(self.static_prices).shape
        if np.asarray(self.x_prev).shape != (num_clouds, num_users):
            raise ValueError("x_prev must have shape (I, J)")
        if np.any(np.asarray(self.x_prev) < 0):
            raise ValueError("x_prev must be nonnegative")
        eps2 = np.asarray(self.eps2, dtype=float)
        if eps2.ndim not in (0, 1) or (eps2.ndim == 1 and eps2.shape != (num_users,)):
            raise ValueError("eps2 must be a scalar or a (J,) vector")
        if self.eps1 <= 0 or np.any(eps2 <= 0):
            raise ValueError("eps1 and eps2 must be positive")
        if np.asarray(self.capacities).shape != (num_clouds,):
            raise ValueError("capacities must have shape (I,)")
        if np.asarray(self.workloads).shape != (num_users,):
            raise ValueError("workloads must have shape (J,)")

    @classmethod
    def from_instance(
        cls,
        instance: ProblemInstance,
        slot: int,
        x_prev: np.ndarray,
        *,
        eps1: float,
        eps2: float,
    ) -> "RegularizedSubproblem":
        """Build the slot-``slot`` subproblem of an instance.

        Static prices get the static weight; the reconfiguration and
        combined migration prices get the dynamic weight, mirroring the
        weighted P0 objective.
        """
        weights = instance.weights
        return cls(
            static_prices=weights.static * instance.static_prices(slot),
            reconfig_prices=weights.dynamic
            * np.asarray(instance.reconfig_prices, dtype=float),
            migration_prices=weights.dynamic * combined_migration_prices(instance),
            capacities=np.asarray(instance.capacities, dtype=float),
            workloads=np.asarray(instance.workloads, dtype=float),
            x_prev=np.asarray(x_prev, dtype=float),
            eps1=eps1,
            eps2=eps2,
        )

    # ----- shapes and scales -------------------------------------------------

    @property
    def num_clouds(self) -> int:
        return int(np.asarray(self.static_prices).shape[0])

    @property
    def num_users(self) -> int:
        return int(np.asarray(self.static_prices).shape[1])

    @property
    def eta(self) -> np.ndarray:
        """eta_i = ln(1 + C_i/eps1)."""
        return eta_fn(np.asarray(self.capacities), self.eps1)

    @property
    def tau(self) -> np.ndarray:
        """tau_j = ln(1 + lambda_j/eps2) (the paper's tau_{i,j} is j-only)."""
        return tau_fn(np.asarray(self.workloads), self.eps2)

    def _reshape(self, flat: np.ndarray) -> np.ndarray:
        return np.asarray(flat, dtype=float).reshape(self.num_clouds, self.num_users)

    # ----- objective ----------------------------------------------------------

    def objective(self, flat: np.ndarray) -> float:
        """P2(t) evaluated at a flattened allocation."""
        x = self._reshape(flat)
        total = float(np.sum(np.asarray(self.static_prices) * x))
        cloud_totals = x.sum(axis=1)
        prev_totals = np.asarray(self.x_prev).sum(axis=1)
        creg = np.asarray(self.reconfig_prices) / self.eta
        shifted = _safe(cloud_totals + self.eps1)
        prev_shifted = prev_totals + self.eps1
        total += float(
            np.sum(creg * (shifted * np.log(shifted / prev_shifted) - cloud_totals))
        )
        total += self.migration_entropy(x)
        return total

    def migration_entropy(self, x: np.ndarray) -> float:
        """The P2 migration regularizer at an (I, J) allocation."""
        bmig = (np.asarray(self.migration_prices)[:, None] / self.tau[None, :])
        xs = _safe(x + self.eps2)
        terms = xs * np.log(xs / (np.asarray(self.x_prev) + self.eps2)) - x
        return float(np.sum(bmig * terms))

    def gradient(self, flat: np.ndarray) -> np.ndarray:
        """Analytic gradient of P2(t) (flattened, cloud-major)."""
        x = self._reshape(flat)
        grad = np.asarray(self.static_prices, dtype=float).copy()
        cloud_totals = x.sum(axis=1)
        prev_totals = np.asarray(self.x_prev).sum(axis=1)
        creg = np.asarray(self.reconfig_prices) / self.eta
        grad += (
            creg * np.log(_safe(cloud_totals + self.eps1) / (prev_totals + self.eps1))
        )[:, None]
        bmig = np.asarray(self.migration_prices)[:, None] / self.tau[None, :]
        grad += bmig * np.log(
            _safe(x + self.eps2) / (np.asarray(self.x_prev) + self.eps2)
        )
        return grad.ravel()

    # ----- solver entry -------------------------------------------------------

    def interior_point(self) -> np.ndarray:
        """A strictly feasible start: capacity-proportional with margin.

        x_ij = m * lambda_j * C_i / sum(C) with margin m in (1, sum(C)/Lambda)
        gives demand slack (m-1) lambda_j > 0 and capacity slack
        C_i (1 - m Lambda / sum(C)) > 0. Requires strict overprovisioning
        (sum(C) > Lambda); raises ValueError otherwise since the subproblem
        then has an empty interior.
        """
        capacities = np.asarray(self.capacities, dtype=float)
        total_workload = float(np.asarray(self.workloads).sum())
        headroom = capacities.sum() / total_workload
        if headroom <= 1.0:
            raise ValueError(
                "no strictly feasible point: total capacity must exceed total workload"
            )
        margin = min(_INTERIOR_MARGIN, 0.5 * (1.0 + headroom))
        share = capacities / capacities.sum()
        x = margin * share[:, None] * np.asarray(self.workloads, dtype=float)[None, :]
        return x.ravel()

    def build_program(self) -> ConvexProgram:
        """Package the subproblem for a :class:`ConvexBackend`.

        The structured IPM starts every P2 solve from
        :meth:`interior_point`.
        """
        return ConvexProgram(structure=self)

    # ----- optimality diagnostics ---------------------------------------------

    def kkt_stationarity_residual(
        self, flat: np.ndarray, theta: np.ndarray, rho: np.ndarray
    ) -> float:
        """Max violation of the stationarity conditions (cf. 15a) given duals.

        With demand multipliers theta_j >= 0 and capacity multipliers
        rho_i >= 0, stationarity at a P2 optimum requires, for every (i, j),
        the reduced gradient g_ij = grad_ij - theta_j + rho_i to satisfy the
        complementarity pair g_ij >= 0 and x_ij * g_ij = 0. The residual is

            max_ij max( -g_ij, min(x_ij, |g_ij|) ),

        which is zero exactly at KKT points and robust to variables sitting
        just off the boundary (interior-point solutions have x ~ mu / g
        there, making the min(.) term of order mu).

        Args:
            flat: candidate solution (flattened).
            theta: (J,) demand multipliers.
            rho: (I,) capacity multipliers.

        Returns:
            The largest violation over all (i, j).
        """
        x = self._reshape(flat)
        grad = self.gradient(flat).reshape(x.shape)
        reduced = grad - np.asarray(theta)[None, :] + np.asarray(rho)[:, None]
        dual_infeasibility = np.maximum(0.0, -reduced)
        complementarity = np.minimum(np.abs(x), np.abs(reduced))
        return float(np.maximum(dual_infeasibility, complementarity).max())
