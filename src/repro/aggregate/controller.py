"""The aggregated streaming controller: cluster, solve reduced, disaggregate.

:class:`AggregatedController` is a drop-in :class:`OnlineController`: it
carries the *per-user* previous decision (so cohort membership churn as
users move is handled by simply re-aggregating under each slot's fresh
cohorts), solves the cohort-reduced P2 of :mod:`repro.aggregate.reduced`
through the solver registry — optionally sharded across processes — and
returns the proportionally disaggregated per-user allocation.

Every slot records an ``aggregate.slot`` telemetry event plus
``aggregate.*`` metrics (cohort counts, reduction ratio, disaggregation
error), which ``repro-edge watch`` and ``repro-edge doctor`` surface.
"""

from __future__ import annotations

import numpy as np

from dataclasses import dataclass, field

from ..core.regularization import OnlineRegularizedAllocator
from ..core.subproblem import RegularizedSubproblem
from ..simulation.observations import (
    SlotObservation,
    SystemDescription,
    single_slot_instance,
)
from ..solvers.registry import get_backend
from ..telemetry import get_registry
from .cohorts import BucketSpec, CohortMap, build_cohorts
from .config import AggregationConfig
from .reduced import aggregation_error_bound, reduced_subproblem
from .sharding import solve_sharded

#: Largest I*J for which the exact per-slot disaggregation error (reduced
#: objective vs the true per-user objective at the split) is evaluated;
#: beyond it only the a-priori bound is recorded. 2M elements keeps the
#: evaluation O(instance size) at every figure/test scale while skipping
#: it for million-user city slots.
ERROR_EVAL_LIMIT = 2_000_000


@dataclass(frozen=True)
class SlotAggregationReport:
    """What aggregation did in one slot (also the telemetry event payload).

    Attributes:
        slot: the observed slot index.
        users: J, columns of the full problem.
        cohorts: G, columns actually solved.
        shards: shard count used for the reduced solve.
        spread: worst within-cohort relative workload spread.
        error_bound: epsilon such that the aggregated cost is within
            ``(1 + epsilon)`` of the direct cost (docs/SCALING.md).
        disagg_error: exact relative objective gap between the reduced
            model and the per-user model at the disaggregated point, or
            ``None`` when the slot exceeds ``ERROR_EVAL_LIMIT``.
        iterations: summed solver iterations across shards.
        partial_solves: shard solves truncated by a deadline budget this
            slot (0 without budgets; docs/SERVING.md).
    """

    slot: int
    users: int
    cohorts: int
    shards: int
    spread: float
    error_bound: float
    disagg_error: float | None
    iterations: int
    partial_solves: int = 0

    @property
    def reduction_ratio(self) -> float:
        """users / cohorts."""
        return self.users / self.cohorts


def _repair_cohort_feasibility(
    y: np.ndarray, cohorts: CohortMap
) -> np.ndarray:
    """Project a converged reduced solution onto exact cohort feasibility.

    The aggregate analogue of the allocator's ``_repair_feasibility``:
    clip negatives, scale deficient cohorts up into the capacity headroom,
    and give an (unreachable at an optimum) all-zero column its workload
    at the cohort's attached station. Per-user feasibility then follows
    structurally from the proportional split.
    """
    y = np.maximum(y, 0.0)
    workloads = np.asarray(cohorts.workloads, dtype=float)
    totals = y.sum(axis=0)
    deficient = totals < workloads
    if np.any(deficient):
        scale = np.ones_like(totals)
        positive = totals > 0
        scale[deficient & positive] = (
            workloads[deficient & positive] / totals[deficient & positive]
        )
        y = y * scale[None, :]
        stations = np.asarray(cohorts.stations)
        for g in np.nonzero(deficient & ~positive)[0]:
            y[int(stations[g]), g] = workloads[g]
    return y


@dataclass
class AggregatedController:
    """Streaming controller solving P2 over (station, workload) cohorts.

    Construct directly, via
    ``OnlineRegularizedAllocator(aggregation=cfg).as_controller(system)``,
    via ``RegularizedController.aggregated(cfg)``, or per-run with
    ``simulate(..., aggregation=cfg)``.
    """

    system: SystemDescription
    algorithm: OnlineRegularizedAllocator = field(
        default_factory=OnlineRegularizedAllocator
    )
    config: AggregationConfig = field(default_factory=AggregationConfig)
    name: str = "online-approx (aggregated)"
    #: Per-slot aggregation reports of the most recent run (diagnostics).
    last_reports: list[SlotAggregationReport] = field(
        default_factory=list, repr=False
    )

    def __post_init__(self) -> None:
        self._buckets = BucketSpec.from_workloads(
            self.system.workloads, self.config.lambda_buckets
        )
        self._x_prev = self.system.zero_allocation()
        self._slots_seen = 0
        self._min_op_price = float("inf")
        self._prev_capacity_duals: np.ndarray | None = None

    def observe(self, observation: SlotObservation) -> np.ndarray:
        """Solve the reduced P2 for one slot; return the (I, J) split."""
        workloads = np.asarray(self.system.workloads, dtype=float)
        cohorts = build_cohorts(observation.attachment, workloads, self._buckets)
        x_prev_cohorts = cohorts.aggregate(self._x_prev)
        subproblem = reduced_subproblem(
            self.system,
            observation,
            cohorts,
            x_prev_cohorts,
            eps1=self.algorithm.eps1,
            eps2=self.algorithm.eps2,
        )
        shards = max(1, min(self.config.shards, cohorts.num_cohorts))
        solve = solve_sharded(
            subproblem,
            shards=shards,
            workers=self.config.workers,
            backend=self.config.backend,
            tol=self.algorithm.tol,
            capacity_duals=self._prev_capacity_duals,
            slicing=self.config.shard_slicing,
            budget=self.algorithm.budget,
            batch_solves=self.config.batch_solves,
        )
        y, iterations = solve.x, solve.iterations
        y = _repair_cohort_feasibility(y, cohorts)
        x_users = cohorts.disaggregate(y)
        self._prev_capacity_duals = solve.capacity_duals

        spread = cohorts.spread(workloads)
        self._min_op_price = min(
            self._min_op_price, float(np.min(np.asarray(observation.op_prices)))
        )
        bound = aggregation_error_bound(
            spread, self.system, min_op_price=self._min_op_price
        )
        disagg_error = self._exact_error(
            observation, subproblem, y, x_users
        )
        report = SlotAggregationReport(
            slot=int(observation.slot),
            users=cohorts.num_users,
            cohorts=cohorts.num_cohorts,
            shards=shards,
            spread=spread,
            error_bound=bound,
            disagg_error=disagg_error,
            iterations=iterations,
            partial_solves=solve.partial_solves,
        )
        self.last_reports.append(report)
        self._record(report)
        self._x_prev = x_users
        self._slots_seen += 1
        return x_users

    def _exact_error(
        self,
        observation: SlotObservation,
        subproblem: RegularizedSubproblem,
        y: np.ndarray,
        x_users: np.ndarray,
    ) -> float | None:
        """Relative gap between the reduced and per-user objectives.

        Evaluates the true per-user P2 objective at the disaggregated
        point against the reduced objective at the cohort point — the
        exact quantity ``aggregation_error_bound`` bounds a-priori. Costs
        one O(I*J) pass, so it is skipped above ``ERROR_EVAL_LIMIT``.
        """
        if self.system.num_clouds * self.system.num_users > ERROR_EVAL_LIMIT:
            return None
        instance = single_slot_instance(self.system, observation)
        user_subproblem = RegularizedSubproblem.from_instance(
            instance,
            0,
            self._x_prev,
            eps1=self.algorithm.eps1,
            eps2=self.algorithm.eps2,
        )
        direct = user_subproblem.objective(np.asarray(x_users).ravel())
        reduced = subproblem.objective(np.asarray(y).ravel())
        return abs(direct - reduced) / max(1.0, abs(direct))

    def _record(self, report: SlotAggregationReport) -> None:
        registry = get_registry()
        if not registry.enabled:
            return
        registry.counter("aggregate.slots").inc()
        registry.gauge("aggregate.reduction_ratio").set(report.reduction_ratio)
        registry.histogram("aggregate.cohorts").observe(float(report.cohorts))
        if report.partial_solves:
            registry.counter("aggregate.partial_solves").inc(
                report.partial_solves
            )
        if report.disagg_error is not None:
            registry.histogram("aggregate.disagg_error").observe(
                report.disagg_error
            )
        registry.event(
            "aggregate.slot",
            slot=report.slot,
            users=report.users,
            cohorts=report.cohorts,
            shards=report.shards,
            reduction=report.reduction_ratio,
            spread=report.spread,
            bound=report.error_bound,
            disagg_error=report.disagg_error,
            iterations=report.iterations,
            partials=report.partial_solves,
        )

    def reset(self) -> None:
        """Drop state: the next observation starts a fresh horizon."""
        self._x_prev = self.system.zero_allocation()
        self._slots_seen = 0
        self._min_op_price = float("inf")
        self.last_reports = []
        self._prev_capacity_duals = None
        # Same per-run circuit-breaker scoping as RegularizedController.
        reset_circuit = getattr(
            get_backend(self.config.backend), "reset_circuit", None
        )
        if reset_circuit is not None:
            reset_circuit()

    def get_state(self) -> tuple:
        """Snapshot ``(x*_{t-1}, slots seen, min op price, capacity duals)``.

        The duals seed the next slot's price-aware shard slices, so a
        resumed run stays bit-identical to the uninterrupted one.
        """
        return (
            self._x_prev.copy(),
            self._slots_seen,
            self._min_op_price,
            None
            if self._prev_capacity_duals is None
            else self._prev_capacity_duals.copy(),
        )

    def set_state(self, state: object) -> None:
        """Restore a snapshot produced by :meth:`get_state`.

        Older releases' 3-element (no duals) and 6-element (two retired
        cache entries before the duals) snapshots restore the same way.
        """
        state = tuple(state)  # type: ignore[arg-type]
        x_prev, slots_seen, min_op_price = state[:3]
        prev_duals = state[-1] if len(state) > 3 else None
        self._x_prev = np.asarray(x_prev, dtype=float).copy()
        self._slots_seen = int(slots_seen)
        self._min_op_price = float(min_op_price)
        self._prev_capacity_duals = (
            None if prev_duals is None else np.asarray(prev_duals, dtype=float).copy()
        )
