"""The streaming execution spine: one loop for every algorithm.

The paper's setting is inherently causal — observe slot t, decide x*_t,
pay the costs, move on. :func:`simulate` is the single implementation of
that loop: it drives any :class:`OnlineController` over an observation
stream, accounts all four paper costs incrementally
(:class:`repro.simulation.accounting.CostAccumulator`), tracks feasibility
residuals, and supports checkpoint/resume plus a memory-bounded mode that
never materializes the (T, I, J) schedule.

Every batch ``run()`` in the project (the paper's algorithm and all
baselines) is a thin adapter over this spine, so "batch" and "streamed"
execution are the same code path by construction. The per-slot body
lives in :class:`SlotStepper` so callers that do not own the observation
stream — the live allocation service in :mod:`repro.service` — drive the
identical accounting/telemetry path one slot at a time. Generic
controller adapters (:class:`PerSlotController`,
:class:`ScheduleController`) live here so
algorithm modules can build their controller forms without import
cycles; see docs/ENGINE.md and docs/SERVING.md.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from ..aggregate.cohorts import FactoredAllocation
from ..core.allocation import AllocationSchedule, FeasibilityReport
from ..core.costs import CostBreakdown
from ..core.problem import ProblemInstance
from ..telemetry import (
    active_profile,
    active_recorder,
    get_registry,
    phase,
    trace_span,
)
from .accounting import AccumulatorState, CostAccumulator, SlotCosts
from .observations import (
    OnlineController,
    SlotObservation,
    SystemDescription,
    iter_observations,
)


@dataclass(frozen=True)
class SimulationCheckpoint:
    """Everything needed to continue an interrupted run.

    Attributes:
        next_slot: how many slots have been processed (the resume point).
        controller_state: the controller's :meth:`get_state` snapshot, or
            ``None`` when the controller does not support checkpointing.
        accumulator_state: the cost accumulator snapshot.
        residuals: running (demand, capacity, negativity) maxima.
    """

    next_slot: int
    controller_state: object | None
    accumulator_state: AccumulatorState
    residuals: tuple[float, float, float]


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of one :func:`simulate` call.

    Attributes:
        schedule: the stacked (T, I, J) trajectory of the slots processed
            *by this call*, or ``None`` in memory-bounded mode
            (``keep_schedule=False``).
        breakdown: per-slot cost breakdown of the *whole* trajectory so far
            (including slots accounted before a resume).
        feasibility: worst constraint violations across the whole trajectory.
        slots: slots processed by this call.
        total_slots: slots accounted in total (resume-aware).
        wall_time_s: wall-clock seconds spent in this call's loop.
        checkpoint: state snapshot for resuming after the last slot.
    """

    schedule: AllocationSchedule | None
    breakdown: CostBreakdown
    feasibility: FeasibilityReport
    slots: int
    total_slots: int
    wall_time_s: float
    checkpoint: SimulationCheckpoint

    @property
    def total_cost(self) -> float:
        """The weighted P0 objective accumulated so far."""
        return self.breakdown.total


def _residuals(
    x: FactoredAllocation, workloads: np.ndarray, capacities: np.ndarray
) -> tuple[float, float, float]:
    """Unclipped (demand, capacity, negativity) residuals, from the factors.

    Member j of column g holds ``lambda_j / Lambda_g`` of it, so its demand
    residual ``lambda_j (1 - Y_g / Lambda_g)`` and its negativity
    ``-y_ig lambda_j / Lambda_g`` are extreme at the column's largest or
    smallest member workload. A trivial factorization is the dense matrix:
    the per-user formulas apply as they are.
    """
    y = x.y
    capacity = float((y.sum(axis=1) - capacities).max())
    if x.cohorts is None:
        return (
            float((workloads - y.sum(axis=0)).max()),
            capacity,
            float((-y).max()),
        )
    cohorts = x.cohorts
    unserved = 1.0 - y.sum(axis=0) / cohorts.workloads
    demand = max(
        float((cohorts.workload_max * unserved).max()),
        float((cohorts.workload_min * unserved).max()),
    )
    largest_share = cohorts.workload_max / cohorts.workloads
    return demand, capacity, float((-y * largest_share[None, :]).max())


class SlotStepper:
    """The per-slot body of :func:`simulate`, one step at a time.

    A stepper owns everything :func:`simulate`'s loop used to own — the
    controller, the incremental cost accumulator, feasibility-residual
    maxima, the optional schedule buffer and per-slot telemetry —
    but leaves the *stream* to the caller. :func:`simulate` drives it
    from an iterable; the live service (:mod:`repro.service`) drives it
    from network updates. Both produce identical numbers because this is
    the only implementation of the slot body.

    Lifecycle: construct (resets or resumes the controller), then call
    :meth:`step` once per observation; :meth:`finish` returns the
    :class:`SimulationResult`. :meth:`result` and
    :meth:`checkpoint` can be called at any time for a live snapshot.

    A slot runs in two phases: :meth:`step` is the decision path (decide,
    account) and :meth:`settle` the deferred, observation-only phase
    (residuals, records). :func:`simulate` runs them back to back; the
    service settles after it has replied. Either way each slot's records carry the same
    values in the same order.
    """

    def __init__(
        self,
        controller: OnlineController,
        system: SystemDescription,
        *,
        keep_schedule: bool = True,
        resume_from: SimulationCheckpoint | None = None,
    ) -> None:
        """Create the stepper (see the class docstring for the lifecycle).

        Each step snapshots into the process-wide flight recorder that
        :func:`repro.telemetry.flight.flight_session` installs, if any.
        """
        self.controller = controller
        self.system = system
        self.keep_schedule = keep_schedule
        self.accumulator = CostAccumulator(system)
        if resume_from is None:
            controller.reset()
            self._residual_demand = 0.0
            self._residual_capacity = 0.0
            self._residual_negativity = 0.0
        else:
            set_state = getattr(controller, "set_state", None)
            if set_state is None:
                raise ValueError(
                    f"{type(controller).__name__} cannot resume: it has no set_state()"
                )
            set_state(resume_from.controller_state)
            self.accumulator.set_state(resume_from.accumulator_state)
            (
                self._residual_demand,
                self._residual_capacity,
                self._residual_negativity,
            ) = resume_from.residuals
        self._workloads = np.asarray(system.workloads, dtype=float)
        self._capacities = np.asarray(system.capacities, dtype=float)
        self._slots: list[np.ndarray] = []
        self.processed = 0
        # The last stepped slot's inputs to its deferred phase, until settle().
        self._pending: tuple | None = None

    def step(
        self, observation: SlotObservation
    ) -> tuple["np.ndarray | FactoredAllocation", SlotCosts]:
        """Process one slot's decision path: decide and account.

        Returns the controller's decision as it made it (a
        :class:`FactoredAllocation` on the cohort path) and the slot's
        costs. The slot's observation-only work — the controller's
        ``settle``, the feasibility residuals, the ``slot``/``prof.phases``
        records and the flight recorder's snapshot — stays pending until
        :meth:`settle`, which the next ``step`` (and
        ``checkpoint``/``result``/``finish``) runs first. The dense (I, J)
        matrix of a factored decision is built only when ``keep_schedule``
        is set.
        """
        self.settle()
        telemetry = get_registry()
        observing = telemetry.enabled
        recorder = active_recorder()
        timing = observing or recorder is not None
        # The flight recorder snapshots the *pre-solve* state (x*_{t-1},
        # accumulator totals, residuals) before the timed window, so
        # slot.wall_ms keeps meaning "solve + accounting" exactly.
        if recorder is not None:
            recorder.begin_slot(self, observation)
        # Per-slot phase attribution: snapshot the active profile's totals
        # for this thread before the solve, diff after — the window covers
        # exactly what slot.wall_ms covers, so the two reconcile.
        profile = active_profile() if observing else None
        mark = profile.marker() if profile is not None else None
        if timing:
            slot_start = time.perf_counter()
        decision = self.controller.observe(observation)
        if isinstance(decision, FactoredAllocation):
            x_t = decision
        else:
            decision = np.asarray(decision, dtype=float)
            x_t = FactoredAllocation(decision)
        with phase("spine.account"):
            costs = self.accumulator.update(observation, x_t)
        slot_ms = 0.0
        if timing:
            slot_ms = (time.perf_counter() - slot_start) * 1000.0
        phases = None
        if profile is not None:
            phases = profile.since(mark)
            # The remainder keeps per-slot phase sums equal to the slot
            # wall by construction — honest "none of the named phases"
            # time instead of silently missing milliseconds.
            phases["spine.unattributed"] = max(0.0, slot_ms - sum(phases.values()))
        if self.keep_schedule:
            self._slots.append(np.array(x_t.materialize(), dtype=float))
        self.processed += 1
        self._pending = (
            observation,
            x_t,
            costs,
            slot_ms,
            phases,
            telemetry if observing else None,
            recorder,
        )
        return decision, costs

    def settle(self) -> None:
        """Run the last slot's deferred phase (idempotent).

        Everything here only observes the slot, so the service runs it
        after writing the reply: the controller's ``settle`` (the
        aggregated path's disaggregation error and ``aggregate.*``
        records), the feasibility residuals, then ``slot.wall_ms`` and the
        ``slot``/``prof.phases`` events and the flight recorder's
        ``end_slot``, so a slot's
        records keep one order whether it settles at once
        (:func:`simulate`) or after a reply.
        Its wall time is profiled as ``spine.settle``, outside the slot's
        ``wall_ms`` window.
        """
        pending, self._pending = self._pending, None
        if pending is None:
            return
        observation, x_t, costs, slot_ms, phases, telemetry, recorder = pending
        with phase("spine.settle"):
            settle = getattr(self.controller, "settle", None)
            if settle is not None:
                settle()
            demand, capacity, negativity = _residuals(
                x_t, self._workloads, self._capacities
            )
            self._residual_demand = max(self._residual_demand, demand)
            self._residual_capacity = max(self._residual_capacity, capacity)
            self._residual_negativity = max(self._residual_negativity, negativity)
            if telemetry is not None:
                telemetry.histogram("slot.wall_ms").observe(slot_ms)
                telemetry.event(
                    "slot",
                    slot=observation.slot,
                    wall_ms=slot_ms,
                    op=costs.operation,
                    sq=costs.service_quality,
                    rc=costs.reconfiguration,
                    mg=costs.migration,
                    total=costs.total,
                )
                if phases is not None:
                    telemetry.event(
                        "prof.phases",
                        slot=observation.slot,
                        wall_ms=slot_ms,
                        phases=phases,
                    )
                    for name in sorted(phases):
                        telemetry.histogram("prof.phase_ms." + name).observe(
                            phases[name]
                        )
                # A streaming sink flushes every N events; this per-slot
                # nudge makes its *time* policy effective too, so a
                # watcher's staleness is bounded by the flush interval
                # even when slots are slow and events sparse.
                telemetry.maybe_flush()
            if recorder is not None:
                recorder.end_slot(self, observation, costs, slot_ms)

    @property
    def residuals(self) -> tuple[float, float, float]:
        """Running (demand, capacity, negativity) violation maxima."""
        return (
            self._residual_demand,
            self._residual_capacity,
            self._residual_negativity,
        )

    def checkpoint(self) -> SimulationCheckpoint:
        """State snapshot sufficient to resume after the last slot."""
        self.settle()
        with phase("spine.checkpoint"):
            get_state = getattr(self.controller, "get_state", None)
            return SimulationCheckpoint(
                next_slot=self.accumulator.num_slots,
                controller_state=get_state() if get_state is not None else None,
                accumulator_state=self.accumulator.get_state(),
                residuals=self.residuals,
            )

    def feasibility(self) -> FeasibilityReport:
        """Worst constraint violations seen so far (clipped at zero)."""
        self.settle()
        return FeasibilityReport(
            demand_violation=max(0.0, self._residual_demand),
            capacity_violation=max(0.0, self._residual_capacity),
            negativity_violation=max(0.0, self._residual_negativity),
        )

    def result(self, wall_time_s: float = 0.0) -> SimulationResult:
        """Build a :class:`SimulationResult` from the current state."""
        self.settle()
        return SimulationResult(
            schedule=AllocationSchedule.from_slots(self._slots)
            if self._slots
            else None,
            breakdown=self.accumulator.breakdown(),
            feasibility=self.feasibility(),
            slots=self.processed,
            total_slots=self.accumulator.num_slots,
            wall_time_s=wall_time_s,
            checkpoint=self.checkpoint(),
        )

    def finish(self, wall_time_s: float = 0.0) -> SimulationResult:
        """Close the run; it must have accounted at least one slot."""
        self.settle()
        if self.accumulator.num_slots == 0:
            raise ValueError("simulate() needs at least one observation")
        return self.result(wall_time_s)


def simulate(
    controller: OnlineController,
    observations: Iterable[SlotObservation],
    system: SystemDescription,
    *,
    keep_schedule: bool = True,
    resume_from: SimulationCheckpoint | None = None,
    max_slots: int | None = None,
    aggregation: object | None = None,
) -> SimulationResult:
    """Drive a controller over an observation stream, one slot at a time.

    The controller never sees more than one slot; costs are accounted
    incrementally from ``(x_t, x_{t-1})`` so the run works on arbitrarily
    long streams.

    Args:
        controller: the decision maker (``reset()`` is called unless
            resuming).
        observations: the slot stream — a list, or a lazy generator such as
            :func:`repro.simulation.observations.iter_observations` for
            memory-bounded runs.
        system: the time-invariant system description (cost prices,
            capacities, weights).
        keep_schedule: when ``False``, each slot's allocation is dropped
            after accounting — memory stays O(I·J) regardless of horizon,
            and ``result.schedule`` is ``None``.
        resume_from: a previous result's ``checkpoint`` to continue from;
            the supplied ``observations`` must start at the checkpoint's
            ``next_slot``.
        max_slots: stop (checkpointably) after this many slots of the
            stream, leaving the rest unconsumed.
        aggregation: an :class:`repro.aggregate.AggregationConfig`; when
            set, the controller is converted to its cohort-aggregated form
            via its ``aggregated()`` method before the run (only
            controllers exposing one — the regularized controller —
            support this). See docs/SCALING.md.

    Returns:
        The :class:`SimulationResult`, whose ``checkpoint`` can seed a
        later ``resume_from``.
    """
    if aggregation is not None:
        aggregated = getattr(controller, "aggregated", None)
        if aggregated is None:
            raise ValueError(
                f"{type(controller).__name__} does not support aggregation= "
                "(no aggregated() method); construct the aggregated "
                "controller explicitly"
            )
        controller = aggregated(aggregation)
    stepper = SlotStepper(
        controller,
        system,
        keep_schedule=keep_schedule,
        resume_from=resume_from,
    )
    start = time.perf_counter()
    # trace_span == registry.span when no trace context is active (the
    # default); under --trace-context it links this run into the trace.
    with trace_span("simulate", controller=getattr(controller, "name", "?")):
        stream = iter(observations)
        while max_slots is None or stepper.processed < max_slots:
            observation = next(stream, None)
            if observation is None:
                break
            stepper.step(observation)
            stepper.settle()
    elapsed = time.perf_counter() - start
    return stepper.finish(elapsed)


# ----- generic controller adapters -------------------------------------------


@dataclass
class PerSlotController:
    """Adapter: a per-slot decision function becomes a controller.

    ``solve(observation, x_prev)`` returns the (I, J) decision; the adapter
    carries x*_{t-1} (zeros before the first slot). online-greedy, the
    lookahead baseline and the atomistic baselines are all this adapter.
    """

    system: SystemDescription
    solve: Callable[[SlotObservation, np.ndarray], np.ndarray]
    name: str = "per-slot"

    def __post_init__(self) -> None:
        self._x_prev = self.system.zero_allocation()

    def observe(self, observation: SlotObservation) -> np.ndarray:
        """Delegate to the wrapped solver and advance the carried state."""
        x_t = np.asarray(self.solve(observation, self._x_prev), dtype=float)
        self._x_prev = x_t
        return x_t

    def reset(self) -> None:
        """Drop state: the next observation starts a fresh horizon."""
        self._x_prev = self.system.zero_allocation()

    def get_state(self) -> np.ndarray:
        """Snapshot x*_{t-1}."""
        return self._x_prev.copy()

    def set_state(self, state: object) -> None:
        """Restore a snapshot produced by :meth:`get_state`."""
        self._x_prev = np.asarray(state, dtype=float).copy()


@dataclass
class ScheduleController:
    """Replay a precomputed (T, I, J) plan one slot at a time.

    This is the *privileged* adapter: the plan may have been computed with
    full-horizon knowledge (offline-opt), so feeding it through the spine
    does not certify causality — it unifies execution and accounting only.
    """

    plan: np.ndarray
    name: str = "schedule"

    def __post_init__(self) -> None:
        self.plan = np.asarray(self.plan, dtype=float)
        if self.plan.ndim != 3:
            raise ValueError("plan must have shape (T, I, J)")
        self._cursor = 0

    def observe(self, observation: SlotObservation) -> np.ndarray:
        """Emit the next planned slot."""
        if self._cursor >= self.plan.shape[0]:
            raise ValueError("plan exhausted: more observations than planned slots")
        x_t = self.plan[self._cursor]
        self._cursor += 1
        return x_t

    def reset(self) -> None:
        """Rewind to the first planned slot."""
        self._cursor = 0

    def get_state(self) -> int:
        """Snapshot the replay cursor."""
        return self._cursor

    def set_state(self, state: object) -> None:
        """Restore a snapshot produced by :meth:`get_state`."""
        self._cursor = int(state)


# ----- algorithm <-> controller bridging -------------------------------------


def controller_for(
    algorithm: object,
    instance: ProblemInstance | None = None,
    system: SystemDescription | None = None,
) -> OnlineController:
    """The controller form of an algorithm.

    Resolution order:

    1. ``algorithm.as_controller(system)`` — the causal form (sees only
       the observation stream);
    2. ``algorithm.as_instance_controller(instance)`` — the privileged
       form for algorithms that legitimately need (some of) the future,
       e.g. lookahead windows or the offline optimum;
    3. fallback: run the batch ``algorithm.run(instance)`` once and replay
       its schedule through a :class:`ScheduleController`.

    Algorithms whose ``run()`` delegates to the spine MUST implement one of
    the first two forms, otherwise the fallback would recurse.
    """
    if system is None:
        if instance is None:
            raise ValueError("need an instance or a system description")
        system = SystemDescription.from_instance(instance)
    as_controller = getattr(algorithm, "as_controller", None)
    if as_controller is not None:
        return as_controller(system)
    as_instance_controller = getattr(algorithm, "as_instance_controller", None)
    if as_instance_controller is not None:
        if instance is None:
            raise ValueError(
                f"{getattr(algorithm, 'name', type(algorithm).__name__)} needs the "
                "full instance for its controller form"
            )
        return as_instance_controller(instance)
    if instance is None:
        raise ValueError(
            f"{getattr(algorithm, 'name', type(algorithm).__name__)} has no "
            "controller form and no instance was supplied for the batch fallback"
        )
    schedule = algorithm.run(instance)  # type: ignore[attr-defined]
    return ScheduleController(
        plan=np.asarray(schedule.x),
        name=getattr(algorithm, "name", type(algorithm).__name__),
    )


def run_on_spine(
    algorithm: object,
    instance: ProblemInstance,
    *,
    keep_schedule: bool = True,
) -> SimulationResult:
    """Run an algorithm's controller form over a whole instance.

    This is the batch-compatibility adapter: every ``run()`` method in the
    project reduces to ``run_on_spine(self, instance).schedule``.
    """
    system = SystemDescription.from_instance(instance)
    controller = controller_for(algorithm, instance, system)
    return simulate(
        controller,
        iter_observations(instance),
        system,
        keep_schedule=keep_schedule,
    )
