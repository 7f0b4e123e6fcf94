"""The aggregated streaming controller: cluster, solve reduced, split.

:class:`AggregatedController` is a drop-in :class:`OnlineController`: it
carries the *per-user* previous decision as a
:class:`~repro.aggregate.cohorts.FactoredAllocation` (so cohort
membership churn as users move is handled by re-aggregating it under each
slot's fresh cohorts, pair by pair), solves the cohort-reduced P2 of
:mod:`repro.aggregate.reduced` jointly with the structured IPM — one
program per slot — and returns the proportional split of the
solution, still factored: the dense (I, J) matrix is never built unless
a caller materializes it.

Every slot records an ``aggregate.slot`` telemetry event plus
``aggregate.*`` metrics (cohort counts, reduction ratio, disaggregation
error), which ``repro-edge watch`` and ``repro-edge doctor`` surface. No
decision reads the disaggregation error, so :meth:`AggregatedController.observe`
leaves it pending and :meth:`AggregatedController.settle` evaluates and
records it — after the service's reply (docs/SERVING.md §1).
"""

from __future__ import annotations

import numpy as np

from dataclasses import dataclass, field, replace

from ..core.bounds import tau
from ..core.regularization import OnlineRegularizedAllocator, repair_feasibility
from ..core.subproblem import RegularizedSubproblem
from ..simulation.observations import SlotObservation, SystemDescription
from ..telemetry import get_registry
from .cohorts import BucketSpec, FactoredAllocation, build_cohorts, pair_map
from .config import AggregationConfig
from .reduced import aggregation_error_bound, reduced_subproblem, solve_sharded

#: Largest I*J for which the exact per-slot disaggregation error (reduced
#: objective vs the true per-user objective at the split) is evaluated;
#: beyond it only the a-priori bound is recorded. 2M elements keeps the
#: per-user migration-entropy pass at every figure/test scale while
#: skipping it for million-user city slots.
ERROR_EVAL_LIMIT = 2_000_000


@dataclass(frozen=True)
class SlotAggregationReport:
    """What aggregation did in one slot (also the telemetry event payload).

    Attributes:
        slot: the observed slot index.
        users: J, columns of the full problem.
        cohorts: G, columns actually solved.
        spread: worst within-cohort relative workload spread.
        error_bound: epsilon such that the aggregated cost is within
            ``(1 + epsilon)`` of the direct cost (docs/SCALING.md).
        disagg_error: exact relative objective gap between the reduced
            model and the per-user model at the disaggregated point, or
            ``None`` when the slot exceeds ``ERROR_EVAL_LIMIT`` (or is not
            settled yet: :meth:`AggregatedController.settle`).
        iterations: Newton iterations of the slot's reduced solve.
        partial_solves: 1 when that solve ended partial (its budget fired,
            or it could not certify; docs/SERVING.md), else 0.
    """

    slot: int
    users: int
    cohorts: int
    spread: float
    error_bound: float
    disagg_error: float | None
    iterations: int
    partial_solves: int = 0

    @property
    def reduction_ratio(self) -> float:
        """users / cohorts."""
        return self.users / self.cohorts


def _member_migration_entropy(
    migration_prices: np.ndarray,
    workloads: np.ndarray,
    inverse_tau: np.ndarray,
    eps2: float,
    previous: FactoredAllocation,
    current: FactoredAllocation,
    pairs: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> float:
    """The per-user P2 migration entropy of ``previous -> current``.

    ``sum_i b_i sum_j [(x_ij + eps2) ln((x_ij + eps2)/(x'_ij + eps2)) - x_ij] / tau_j``
    from the factors and their :func:`pair_map` ``pairs``. Within a pair
    ``x_ij = lambda_j a_i`` with ``a = y[:, g] / Lambda_g`` (likewise
    ``x'``), so with ``w = lambda / tau`` and ``s = eps2 / lambda`` a term is
    ``w (a + s) (ln((a + s)/(a' + s)) - 1) + eps2 / tau``: per cloud one
    gather and in-place ufuncs on two J-buffers, reduced with ufuncs — a
    multithreaded BLAS dot contends with the server's other threads.
    """
    pair_of, before, after = pairs
    weights = workloads * inverse_tau
    shifts = eps2 / workloads
    # Any member's share / lambda is its pair's coefficient scale.
    member = np.empty(before.size, dtype=np.intp)
    member[pair_of] = np.arange(pair_of.size)
    lam = workloads[member]
    coefficients = np.stack(
        [
            side.y.take(column, axis=1) * (side.member_share[member] / lam)
            for side, column in ((current, after), (previous, before))
        ],
        axis=1,
    )  # (I, 2, P)
    prices = np.asarray(migration_prices, dtype=float)
    constant = eps2 * float(inverse_tau.sum())
    total = 0.0
    buffers = np.empty((2, pair_of.size))
    x, x_prev = buffers
    for i, price in enumerate(prices):
        coefficients[i].take(pair_of, axis=1, out=buffers, mode="clip")
        buffers += shifts
        np.divide(x, x_prev, out=x_prev)
        np.log(x_prev, out=x_prev)
        x_prev -= 1.0
        x_prev *= x
        x_prev *= weights
        total += price * (float(x_prev.sum()) + constant)
    return total


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
        # Workloads never change within a run: bucket every user once.
        self._workloads = np.asarray(self.system.workloads, dtype=float)
        self._buckets = BucketSpec.from_workloads(
            self._workloads, self.config.lambda_buckets
        )
        self._bucket_of = self._buckets.assign(self._workloads)
        self._inverse_tau = 1.0 / tau(self._workloads, self.algorithm.eps2)
        self._x_prev = self._zero_allocation()
        self._slots_seen = 0
        self._min_op_price = float("inf")
        # The last slot's report and its error's inputs, until settle().
        self._pending: tuple | None = None

    def observe(self, observation: SlotObservation) -> FactoredAllocation:
        """Solve the reduced P2 for one slot; return the factored split.

        The slot's report is appended with its disaggregation error
        pending; a still-pending previous slot is settled first.
        """
        self.settle()
        cohorts = build_cohorts(
            observation.attachment, self._workloads, self._buckets, self._bucket_of
        )
        pairs = pair_map(self._x_prev, cohorts)
        x_prev_cohorts = cohorts.aggregate(self._x_prev, pairs)
        subproblem = reduced_subproblem(
            self.system,
            observation,
            cohorts,
            x_prev_cohorts,
            eps1=self.algorithm.eps1,
            eps2=self.algorithm.eps2,
        )
        # Called through the module global, so a profiler can wrap it.
        solve = solve_sharded(
            subproblem, tol=self.algorithm.tol, budget=self.algorithm.budget
        )
        y = np.asarray(solve.x, dtype=float).reshape(
            subproblem.num_clouds, subproblem.num_users
        )
        decision = FactoredAllocation(
            repair_feasibility(y, cohorts.workloads, cohorts.stations),
            cohorts,
            pairs=(self._x_prev.cohort_of, pairs),
        )

        self._min_op_price = min(
            self._min_op_price, float(np.min(np.asarray(observation.op_prices)))
        )
        bound = aggregation_error_bound(
            cohorts.spread, self.system, min_op_price=self._min_op_price
        )
        report = SlotAggregationReport(
            slot=int(observation.slot),
            users=cohorts.num_users,
            cohorts=cohorts.num_cohorts,
            spread=cohorts.spread,
            error_bound=bound,
            disagg_error=None,
            iterations=int(solve.iterations),
            partial_solves=int(bool(solve.partial)),
        )
        self.last_reports.append(report)
        self._pending = (report, subproblem, self._x_prev, decision, pairs)
        self._x_prev = decision
        self._slots_seen += 1
        return decision

    def settle(self) -> None:
        """Complete the last slot's report and record it (idempotent).

        Evaluates the disaggregation error from the inputs ``observe``
        kept, replaces ``last_reports[-1]`` with the completed report and
        emits the ``aggregate.*`` telemetry. A no-op when nothing is
        pending; ``observe``, ``reset`` and ``set_state`` call it first,
        so no slot is dropped.
        """
        pending, self._pending = self._pending, None
        if pending is None:
            return
        report, subproblem, previous, decision, pairs = pending
        settled = replace(
            report,
            disagg_error=self._exact_error(subproblem, previous, decision, pairs),
        )
        if self.last_reports and self.last_reports[-1] is report:
            self.last_reports[-1] = settled
        self._record(settled)

    def _exact_error(
        self,
        subproblem: RegularizedSubproblem,
        previous: FactoredAllocation,
        decision: FactoredAllocation,
        pairs: tuple[np.ndarray, np.ndarray, np.ndarray],
    ) -> float | None:
        """Relative gap between the reduced and per-user objectives.

        The per-user P2 objective at the split against the reduced
        objective at the cohort point — the exact quantity
        ``aggregation_error_bound`` bounds a-priori. Their static and
        reconfiguration parts are equal (docs/SCALING.md §1), so only the
        migration entropy is evaluated per user, straight from the two
        factorizations and the slot's ``pairs``. Costs one O(I*J) pass, so
        it is skipped above ``ERROR_EVAL_LIMIT``.
        """
        system = self.system
        if system.num_clouds * system.num_users > ERROR_EVAL_LIMIT:
            return None
        y = decision.y
        reduced_entropy = subproblem.migration_entropy(y)
        reduced = subproblem.objective(y.ravel())
        members = _member_migration_entropy(
            subproblem.migration_prices,
            self._workloads,
            self._inverse_tau,
            self.algorithm.eps2,
            previous,
            decision,
            pairs,
        )
        direct = reduced - reduced_entropy + members
        return abs(members - reduced_entropy) / max(1.0, abs(direct))

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
            reduction=report.reduction_ratio,
            spread=report.spread,
            bound=report.error_bound,
            disagg_error=report.disagg_error,
            iterations=report.iterations,
            partials=report.partial_solves,
        )

    def _zero_allocation(self) -> FactoredAllocation:
        return FactoredAllocation.zeros(self.system.num_clouds, self.system.num_users)

    def reset(self) -> None:
        """Drop state: the next observation starts a fresh horizon."""
        self.settle()
        self._x_prev = self._zero_allocation()
        self._slots_seen = 0
        self._min_op_price = float("inf")
        self.last_reports = []

    def get_state(self) -> tuple:
        """Snapshot ``(x*_{t-1}, slots seen, min op price)``.

        ``x*_{t-1}`` is in :meth:`FactoredAllocation.state` form.
        """
        return (self._x_prev.state(), self._slots_seen, self._min_op_price)

    def set_state(self, state: object) -> None:
        """Restore a snapshot produced by :meth:`get_state`.

        Older releases' 4-element (capacity duals last) and 6-element (two
        retired cache entries, then the duals) snapshots restore the same
        way, their trailing entries ignored; a dense (I, J) ``x*_{t-1}``
        restores as the trivial factorization.
        """
        self.settle()
        x_prev, slots_seen, min_op_price = tuple(state)[:3]  # type: ignore[arg-type]
        self._x_prev = FactoredAllocation.from_state(x_prev)
        self._slots_seen = int(slots_seen)
        self._min_op_price = float(min_op_price)
