"""Configuration of the live allocation service (dependency leaf).

:class:`ServiceConfig` bundles everything a serving session needs beyond
the :class:`~repro.simulation.observations.SystemDescription` itself: the
regularizer parameters, the solver tolerance, the optional cohort
aggregation, and — the serving-specific part — the per-slot deadline
budget. See docs/SERVING.md for how the budget turns into the
degradation ladder.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..aggregate.config import AggregationConfig
from ..solvers.base import SolveBudget

#: Default regularizer value (mirrors ``repro.core.regularization``).
_DEFAULT_EPSILON = 1.0


@dataclass(frozen=True)
class ServiceConfig:
    """How a serving session solves its slots.

    Attributes:
        deadline_s: per-slot solve deadline in seconds. When the solver
            is still iterating at the deadline it returns its last
            (strictly feasible) iterate and the slot is counted
            as a deadline miss. ``None`` disables the wall-clock budget.
        max_iterations: per-slot solver-iteration cap — the deterministic
            twin of ``deadline_s``, used by tests and the bench suite to
            engage the degradation ladder reproducibly. ``None`` disables
            the cap.
        eps1: regularizer parameter for the reconfiguration term.
        eps2: regularizer parameter for the migration term.
        tol: optimizer tolerance per subproblem.
        aggregation: when set, slots are solved over (station, workload)
            cohorts via :mod:`repro.aggregate` — the city-scale path.
        keep_schedule: keep every slot's (I, J) allocation in memory.
            Off by default: a long-running service must stay O(I*J).
        history: how many recent solver results / aggregation reports the
            session retains for diagnostics (older entries are dropped so
            an unbounded stream cannot grow memory).
    """

    deadline_s: float | None = None
    max_iterations: int | None = None
    eps1: float = _DEFAULT_EPSILON
    eps2: float = _DEFAULT_EPSILON
    tol: float = 1e-8
    aggregation: AggregationConfig | None = None
    keep_schedule: bool = False
    history: int = 16

    def __post_init__(self) -> None:
        if self.deadline_s is not None and self.deadline_s < 0:
            raise ValueError("deadline_s must be nonnegative or None")
        if self.max_iterations is not None and self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1 or None")
        if self.history < 1:
            raise ValueError("history must be at least 1")

    def budget(self) -> SolveBudget | None:
        """The :class:`SolveBudget` this config implies (``None`` = off)."""
        if self.deadline_s is None and self.max_iterations is None:
            return None
        return SolveBudget(
            deadline_s=self.deadline_s, max_iterations=self.max_iterations
        )
