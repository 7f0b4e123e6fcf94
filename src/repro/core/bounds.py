"""The theoretical competitive guarantee (paper Section IV, Theorem 2).

Theorem 2: solving P2 optimally per slot is r-competitive for P0 with

    r = 1 + gamma * |I|,
    gamma = max_i { (C_i + eps1) ln(1 + C_i/eps1), (C_i + eps2) ln(1 + C_i/eps2) }.

The paper's Remark observes r is monotonically decreasing in eps1 and eps2,
so the bound can be improved by tuning them (the empirical sweep is
Figure 4). This module evaluates the bound and provides the tuning helper.
"""

from __future__ import annotations

import numpy as np

from .problem import ProblemInstance


def eta(capacities: np.ndarray, eps1: float) -> np.ndarray:
    """eta_i = ln(1 + C_i / eps1), the reconfiguration regularizer scale."""
    if eps1 <= 0:
        raise ValueError("eps1 must be positive")
    return np.log1p(np.asarray(capacities, dtype=float) / eps1)


def tau(workloads: np.ndarray, eps2: float | np.ndarray) -> np.ndarray:
    """tau_{i,j} = ln(1 + lambda_j / eps2), the migration regularizer scale.

    The paper's tau depends only on j, so this returns a (J,) array.

    ``eps2`` may be a (J,) vector (a per-column regularization). The
    aggregation layer (:mod:`repro.aggregate`) uses this: a cohort column
    standing for ``n`` users carries ``n * eps2``, so that
    ``tau(Lambda_g, n_g * eps2) = ln(1 + mean_workload_g / eps2)`` — the
    per-user tau at the cohort's mean workload.
    """
    eps2 = np.asarray(eps2, dtype=float)
    if np.any(eps2 <= 0):
        raise ValueError("eps2 must be positive")
    return np.log1p(np.asarray(workloads, dtype=float) / eps2)


def gamma(capacities: np.ndarray, eps1: float, eps2: float) -> float:
    """The gamma constant of Lemma 6."""
    capacities = np.asarray(capacities, dtype=float)
    if eps1 <= 0 or eps2 <= 0:
        raise ValueError("eps1 and eps2 must be positive")
    term1 = (capacities + eps1) * np.log1p(capacities / eps1)
    term2 = (capacities + eps2) * np.log1p(capacities / eps2)
    return float(max(term1.max(), term2.max()))


def competitive_ratio_bound(
    instance: ProblemInstance, eps1: float, eps2: float
) -> float:
    """Theorem 2's parameterized ratio r = 1 + gamma * |I|."""
    return 1.0 + gamma(np.asarray(instance.capacities), eps1, eps2) * instance.num_clouds


def suggest_epsilon(instance: ProblemInstance, *, fraction: float = 0.05) -> float:
    """A practical default for eps1 = eps2.

    The regularizer behaves like a smoothed (x)+ with smoothing width ~eps;
    a small fraction of the mean per-cloud load keeps the subproblem
    well-conditioned without drowning the dynamic prices. This matches the
    "dip" region of the paper's Figure 4 sweep.
    """
    if fraction <= 0:
        raise ValueError("fraction must be positive")
    mean_load = instance.total_workload / instance.num_clouds
    return max(1e-6, fraction * mean_load)
