"""Figure 4: sensitivity to the regularization parameter eps and the
dynamic/static weight ratio mu.

* **eps sweep** — eps1 = eps2 = eps varied over [1e-3, 1e3] (log scale).
  The paper observes the empirical ratio "declines slightly at the
  beginning and then increases to a stable level".
* **mu sweep** — mu = (dynamic weight)/(static weight) over [1e-3, 1e3].
  For small mu (static cost dominates) the algorithm is near-optimal; for
  large mu it stays at "a stable yet reasonably good competitive ratio".

Both sweeps also report the theoretical bound r = 1 + gamma |I| alongside
the empirical ratio (the Remark after Theorem 2: the bound is monotonically
decreasing in eps).
"""

from __future__ import annotations

import numpy as np

from ..baselines import OfflineOptimal, OnlineGreedy
from ..core.bounds import competitive_ratio_bound
from ..core.regularization import OnlineRegularizedAllocator
from ..simulation.scenario import Scenario
from .runner import RatioPoint, ratio_table, run_ratio_sweep
from .settings import ExperimentScale

#: Paper sweep: 1e-3 .. 1e3 in decades.
EPS_VALUES = tuple(float(v) for v in np.logspace(-3, 3, 7))
MU_VALUES = tuple(float(v) for v in np.logspace(-3, 3, 7))


def run_eps_sweep(
    scale: ExperimentScale | None = None,
    *,
    eps_values: tuple[float, ...] = EPS_VALUES,
) -> list[RatioPoint]:
    """Empirical ratio of online-approx (and greedy) per eps value."""
    scale = scale or ExperimentScale()
    scenario = Scenario(
        num_users=scale.num_users,
        num_slots=scale.num_slots,
        workload_distribution="power",
    )
    cases = [
        (
            f"eps={eps:g}",
            scenario,
            [
                OfflineOptimal(),
                OnlineGreedy(),
                OnlineRegularizedAllocator(eps1=eps, eps2=eps),
            ],
            scale.seed,
        )
        for eps in eps_values
    ]
    return run_ratio_sweep(
        cases,
        repetitions=scale.repetitions,
        workers=scale.workers,
        keep_schedules=scale.keep_schedules,
        batch_solves=scale.batch_solves,
    )


def run_mu_sweep(
    scale: ExperimentScale | None = None,
    *,
    mu_values: tuple[float, ...] = MU_VALUES,
) -> list[RatioPoint]:
    """Empirical ratio per dynamic/static weight ratio mu."""
    scale = scale or ExperimentScale()
    cases = [
        (
            f"mu={mu:g}",
            Scenario(
                num_users=scale.num_users,
                num_slots=scale.num_slots,
                workload_distribution="power",
            ).with_mu(mu),
            [
                OfflineOptimal(),
                OnlineGreedy(),
                OnlineRegularizedAllocator(eps1=scale.eps, eps2=scale.eps),
            ],
            scale.seed,
        )
        for mu in mu_values
    ]
    return run_ratio_sweep(
        cases,
        repetitions=scale.repetitions,
        workers=scale.workers,
        keep_schedules=scale.keep_schedules,
        batch_solves=scale.batch_solves,
    )


def theoretical_bounds(
    scale: ExperimentScale,
    eps_values: tuple[float, ...] = EPS_VALUES,
    *,
    seed: int | None = None,
) -> dict[float, float]:
    """Theorem 2's r = 1 + gamma |I| per eps, on one drawn instance."""
    scale = scale or ExperimentScale()
    scenario = Scenario(
        num_users=scale.num_users,
        num_slots=scale.num_slots,
        workload_distribution="power",
    )
    instance = scenario.build(seed=scale.seed if seed is None else seed)
    return {
        eps: competitive_ratio_bound(instance, eps, eps) for eps in eps_values
    }


def fig4_report(
    eps_points: list[RatioPoint],
    mu_points: list[RatioPoint],
    bounds: dict[float, float] | None = None,
) -> str:
    """Both sweeps rendered as tables, plus the theoretical-bound column."""
    lines = [
        "Figure 4 - impact of eps (empirical ratio, online-approx vs greedy)",
        ratio_table(eps_points, axis_name="eps"),
        "",
        "Figure 4 - impact of mu = dynamic/static weight",
        ratio_table(mu_points, axis_name="mu"),
    ]
    if bounds:
        lines.append("")
        lines.append("Theorem 2 bound r = 1 + gamma|I| (monotone decreasing in eps):")
        for eps, bound in bounds.items():
            lines.append(f"  eps={eps:<8g} r={bound:.4g}")
    return "\n".join(lines)
