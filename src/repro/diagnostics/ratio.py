"""Empirical competitive ratio vs the certified Theorem-2 bound.

Theorem 2 certifies that solving P2 optimally per slot is
``r = 1 + gamma |I|``-competitive against the offline P0 optimum, with
``gamma`` computed from ``eps1``, ``eps2`` and the capacities
(:func:`repro.core.bounds.competitive_ratio_bound`). Because the online
algorithm is causal, the guarantee applies to every *prefix* of the
arrival sequence too: the trajectory it produces on slots ``[0, t]`` is
exactly what it would produce if the horizon ended at ``t``. This module
exploits that to turn one run into a whole trace of (online cost /
offline lower bound) points, each individually checked against the bound
— a slot where the certified bound is violated indicates a bug (P2 not
solved to optimality, accounting drift, or a mis-computed gamma), never
an unlucky input.

The offline lower bound reuses :class:`repro.baselines.OfflineOptimal`
(one prefix LP per checked slot; subsample with ``every`` on long
horizons).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..baselines.offline import OfflineOptimal
from ..core.allocation import AllocationSchedule
from ..core.bounds import competitive_ratio_bound
from ..core.costs import cost_breakdown
from ..core.problem import ProblemInstance
from ..telemetry import get_registry

#: Relative tolerance when comparing a ratio against the certified bound
#: (both sides carry LP-solver noise of this order).
BOUND_RTOL = 1e-9


@dataclass(frozen=True)
class RatioPoint:
    """The running competitive ratio after one prefix of the horizon.

    Attributes:
        slot: last slot of the prefix (inclusive, 0-based).
        online_cost: cumulative weighted P0 cost of the online trajectory
            over slots ``[0, slot]``.
        offline_cost: the offline P0 optimum of the prefix instance.
    """

    slot: int
    online_cost: float
    offline_cost: float

    @property
    def ratio(self) -> float:
        """online / offline (``inf`` when the offline optimum is zero)."""
        if self.offline_cost <= 0.0:
            return float("inf") if self.online_cost > 0.0 else 1.0
        return self.online_cost / self.offline_cost


@dataclass(frozen=True)
class RatioTrace:
    """A run's competitive-ratio trajectory plus its certified bound.

    Attributes:
        points: prefix ratios in slot order (the last one is the run's
            empirical competitive ratio).
        bound: Theorem 2's ``1 + gamma |I|`` for the instance and epsilons.
    """

    points: tuple[RatioPoint, ...]
    bound: float

    @property
    def final_ratio(self) -> float:
        """The full-horizon empirical competitive ratio."""
        return self.points[-1].ratio if self.points else float("nan")

    @property
    def worst_ratio(self) -> float:
        """The largest prefix ratio along the trace."""
        return max((p.ratio for p in self.points), default=float("nan"))

    def violations(self, rtol: float = BOUND_RTOL) -> list[RatioPoint]:
        """Prefix points whose ratio exceeds the certified bound."""
        return [p for p in self.points if p.ratio > self.bound * (1.0 + rtol)]

    @property
    def certified(self) -> bool:
        """Whether every prefix ratio respects the Theorem-2 bound."""
        return not self.violations()


def competitive_ratio_trace(
    instance: ProblemInstance,
    schedule: AllocationSchedule,
    *,
    eps1: float,
    eps2: float,
    every: int = 1,
) -> RatioTrace:
    """Track the running empirical ratio of an online trajectory.

    Args:
        instance: the full-horizon problem instance.
        schedule: the online algorithm's trajectory on it.
        eps1, eps2: the regularization parameters the run used (they set
            the certified bound).
        every: check every ``every``-th prefix (the final slot is always
            checked); each check solves one offline prefix LP.
    """
    if every < 1:
        raise ValueError("every must be at least 1")
    per_slot = cost_breakdown(schedule, instance).total_per_slot
    num_slots = int(per_slot.shape[0])
    offline = OfflineOptimal()
    points = []
    for t in range(num_slots):
        if (t + 1) % every and t != num_slots - 1:
            continue
        prefix = (
            instance if t == num_slots - 1 else instance.slice_slots(0, t + 1)
        )
        points.append(
            RatioPoint(
                slot=t,
                online_cost=float(per_slot[: t + 1].sum()),
                offline_cost=offline.optimal_cost(prefix),
            )
        )
    return RatioTrace(
        points=tuple(points),
        bound=competitive_ratio_bound(instance, eps1, eps2),
    )


def record_ratio_trace(trace: RatioTrace, registry=None, *, stream: bool = False) -> None:
    """Emit a ratio trace into the (active) telemetry registry.

    Each prefix ratio lands in the ``diag.ratio`` histogram; bound
    violations increment ``diag.ratio.violations`` and emit one
    ``diag.ratio.violation`` event each; the whole trace is persisted as a
    single ``diag.ratio.trace`` event. A no-op under the null registry.

    With ``stream=True`` every prefix additionally emits one
    ``diag.ratio.point`` event (``slot``/``ratio``/``bound``) — the live
    ratio feed that ``repro-edge watch`` renders and the alerting
    ``ratio-over-bound`` rule (:mod:`repro.telemetry.alerting`) checks as the
    manifest streams.
    """
    registry = registry if registry is not None else get_registry()
    if not registry.enabled:
        return
    for point in trace.points:
        ratio = point.ratio
        if np.isfinite(ratio):
            registry.histogram("diag.ratio").observe(ratio)
        if stream:
            registry.event(
                "diag.ratio.point",
                slot=point.slot,
                ratio=ratio,
                bound=trace.bound,
            )
    for point in trace.violations():
        registry.counter("diag.ratio.violations").inc()
        registry.event(
            "diag.ratio.violation",
            slot=point.slot,
            ratio=point.ratio,
            bound=trace.bound,
        )
    registry.gauge("diag.ratio.final").set(trace.final_ratio)
    registry.gauge("diag.ratio.bound").set(trace.bound)
    registry.event(
        "diag.ratio.trace",
        bound=trace.bound,
        final_ratio=trace.final_ratio,
        worst_ratio=trace.worst_ratio,
        certified=trace.certified,
        points=[
            {
                "slot": p.slot,
                "online_cost": p.online_cost,
                "offline_cost": p.offline_cost,
                "ratio": p.ratio,
            }
            for p in trace.points
        ],
    )
