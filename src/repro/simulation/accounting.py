"""Incremental cost accounting: the four paper costs, slot by slot.

:mod:`repro.core.costs` scores a *finished* schedule — it needs the whole
(T, I, J) array in memory. The :class:`CostAccumulator` here computes the
same four cost families (eqs. 1-3, 5) online from ``(x_t, x_{t-1})`` as the
spine emits decisions, so cost accounting works on horizons whose full
schedule is never materialized. The accumulated per-slot arrays assemble
into the exact same :class:`CostBreakdown`; equality with
:func:`repro.core.costs.cost_breakdown` to 1e-9 is property-tested.

Decisions are accounted in factored form
(:class:`repro.aggregate.cohorts.FactoredAllocation`): a cohort decision
costs O(J + pairs·I) instead of O(I·J), and a dense decision is the
trivial factorization, whose arithmetic is exactly the dense formulas.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..aggregate.cohorts import FactoredAllocation, pair_allocations
from ..core.costs import CostBreakdown, positive_part
from ..telemetry import get_registry
from .observations import SlotObservation, SystemDescription


@dataclass(frozen=True)
class SlotCosts:
    """Unweighted costs of one slot, plus the weighted P0 contribution."""

    slot: int
    operation: float
    service_quality: float
    reconfiguration: float
    migration: float
    total: float


@dataclass(frozen=True)
class AccumulatorState:
    """Picklable snapshot of a :class:`CostAccumulator` (checkpoint/resume).

    ``x_prev`` is in :meth:`FactoredAllocation.state` form: a dense (I, J)
    array for a per-user decision (the layout of every earlier release),
    a tuple of factors for a cohort decision.
    """

    operation: tuple[float, ...]
    service_quality: tuple[float, ...]
    reconfiguration: tuple[float, ...]
    migration: tuple[float, ...]
    x_prev: np.ndarray | tuple


class CostAccumulator:
    """Accumulate the P0 cost of an allocation trajectory one slot at a time.

    Feed every emitted decision through :meth:`update`; read the totals at
    any point via :meth:`breakdown` / :meth:`totals`. The previous slot's
    allocation is the only per-user state kept, so memory is O(T) scalars
    + one factored allocation (O(J + I·G); O(I·J) for a dense decision) —
    independent of the horizon length times user count product that a
    full schedule costs.

    The slot-0 dynamic costs are charged against the paper's all-zero
    baseline x_{i,j,0} = 0, exactly as in :mod:`repro.core.costs`.
    """

    def __init__(self, system: SystemDescription) -> None:
        """Start accounting a fresh trajectory for ``system``."""
        self.system = system
        self._operation: list[float] = []
        self._service_quality: list[float] = []
        self._reconfiguration: list[float] = []
        self._migration: list[float] = []
        self._x_prev = FactoredAllocation.zeros(system.num_clouds, system.num_users)

    @property
    def num_slots(self) -> int:
        """Number of slots accounted so far."""
        return len(self._operation)

    def update(
        self, observation: SlotObservation, x_t: "np.ndarray | FactoredAllocation"
    ) -> SlotCosts:
        """Account one slot's decision; returns that slot's cost record.

        Args:
            observation: the slot's observation (prices, attachments).
            x_t: the slot's allocation: a dense (I, J) array or a
                :class:`FactoredAllocation`.
        """
        system = self.system
        if not isinstance(x_t, FactoredAllocation):
            x_t = FactoredAllocation(np.asarray(x_t, dtype=float))
        x_prev = self._x_prev
        y = x_t.y
        if x_t.cohorts is None:
            stations = np.asarray(observation.attachment)
            mean_workloads = np.asarray(system.workloads, dtype=float)
        else:
            stations = x_t.cohorts.stations
            mean_workloads = x_t.cohorts.mean_workloads

        cloud_totals = y.sum(axis=1)
        prev_totals = x_prev.y.sum(axis=1)

        # Cost_op (eq. 1): Sum_i a_{i,t} Sum_j x_{i,j,t}.
        operation = float(
            np.asarray(observation.op_prices, dtype=float) @ cloud_totals
        )
        # Cost_sq (eq. 3): access delay + workload-normalized inter-cloud
        # delay; a column's members hold share_j / lambda_j = n_g / Lambda_g
        # per unit, so the column pays d(station_g, i) / mean lambda_g.
        d_att = np.asarray(system.inter_cloud_delay, dtype=float)[
            :, stations
        ]  # (I, G): d(l_g, i)
        service_quality = float(
            np.asarray(observation.access_delay, dtype=float).sum()
            + np.sum(y * (d_att / mean_workloads[None, :]))
        )
        # Cost_rc (eq. 2): c_i (X_{i,t} - X_{i,t-1})+.
        reconfiguration = float(
            positive_part(cloud_totals - prev_totals)
            @ np.asarray(system.reconfig_prices, dtype=float)
        )
        # Cost_mg (eq. 5): b_i^out z_out + b_i^in z_in with the eq. 4
        # volumes, summed over the (previous, current) column pairs.
        before, after = pair_allocations(x_prev, x_t)
        z_out = positive_part(before - after).sum(axis=1)
        z_in = positive_part(after - before).sum(axis=1)
        migration = float(
            z_out @ np.asarray(system.migration_prices.out, dtype=float)
            + z_in @ np.asarray(system.migration_prices.into, dtype=float)
        )

        self._operation.append(operation)
        self._service_quality.append(service_quality)
        self._reconfiguration.append(reconfiguration)
        self._migration.append(migration)
        self._x_prev = x_t

        weights = system.weights
        total = weights.static * (operation + service_quality) + weights.dynamic * (
            reconfiguration + migration
        )
        telemetry = get_registry()
        if telemetry.enabled:
            telemetry.counter("accounting.slots").inc()
            telemetry.counter("accounting.cost.op").inc(operation)
            telemetry.counter("accounting.cost.sq").inc(service_quality)
            telemetry.counter("accounting.cost.rc").inc(reconfiguration)
            telemetry.counter("accounting.cost.mg").inc(migration)
            telemetry.counter("accounting.cost.total").inc(total)
        return SlotCosts(
            slot=observation.slot,
            operation=operation,
            service_quality=service_quality,
            reconfiguration=reconfiguration,
            migration=migration,
            total=total,
        )

    def breakdown(self) -> CostBreakdown:
        """The accumulated per-slot costs as a standard :class:`CostBreakdown`."""
        if not self._operation:
            raise ValueError("no slots accounted yet")
        return CostBreakdown(
            operation=np.asarray(self._operation, dtype=float),
            service_quality=np.asarray(self._service_quality, dtype=float),
            reconfiguration=np.asarray(self._reconfiguration, dtype=float),
            migration=np.asarray(self._migration, dtype=float),
            weights=self.system.weights,
        )

    def totals(self) -> dict[str, float]:
        """Summed components plus the weighted total (see ``CostBreakdown.totals``)."""
        return self.breakdown().totals()

    @property
    def total(self) -> float:
        """The weighted P0 objective of everything accounted so far."""
        return self.breakdown().total

    # ----- checkpoint/resume --------------------------------------------------

    def get_state(self) -> AccumulatorState:
        """Snapshot the accumulated costs and the carried x_{t-1}."""
        return AccumulatorState(
            operation=tuple(self._operation),
            service_quality=tuple(self._service_quality),
            reconfiguration=tuple(self._reconfiguration),
            migration=tuple(self._migration),
            x_prev=self._x_prev.state(),
        )

    def set_state(self, state: AccumulatorState) -> None:
        """Restore a snapshot produced by :meth:`get_state`."""
        self._operation = list(state.operation)
        self._service_quality = list(state.service_quality)
        self._reconfiguration = list(state.reconfiguration)
        self._migration = list(state.migration)
        self._x_prev = FactoredAllocation.from_state(state.x_prev)
