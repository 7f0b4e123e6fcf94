"""One serving session: a budgeted controller driven over live updates.

:class:`AllocationSession` is the service's synchronous core — no
asyncio, no sockets — so it is directly testable and reusable from the
TCP server, the stdio loop, and the load generator alike. It wires the
pieces the batch path already has into a long-running shape:

* a :class:`~repro.core.regularization.OnlineRegularizedAllocator` whose
  :class:`~repro.solvers.base.SolveBudget` comes from the
  :class:`~repro.service.config.ServiceConfig` (the deadline ladder);
* that allocator's controller form — per-user, or cohort-aggregated when
  the config carries an :class:`~repro.aggregate.AggregationConfig`;
* a :class:`~repro.simulation.spine.SlotStepper`, so every slot runs the
  *identical* accounting/telemetry/feasibility body as batch
  :func:`~repro.simulation.spine.simulate`.

Each slot runs in two phases. :meth:`AllocationSession.step` (and
``handle`` for an update) is the decision path that ends in the reply;
:meth:`AllocationSession.settle` runs the observation-only work after it
— the disaggregation error, the slot's records, the flight snapshot and
alert evaluation. The server calls ``settle`` after writing the reply.

Each processed slot is measured and classified: a **deadline miss** is a
slot whose solve was budget-truncated (any partial solve) or whose wall
latency exceeded the configured deadline. Misses are counted
(``service.deadline.misses``), recorded as ``service.deadline.miss``
events, and surfaced in every ``slot_result`` reply.

The session hosts no incident plane of its own. Its records go to the
active registry, whose sink chain carries the alert rules and the flight
recorder for every command alike
(:func:`~repro.telemetry.sinks.streaming_manifest_session`, armed from
the CLI by ``--watchdog``/``--slo``/``--flight``): the default
``deadline-miss`` storm watches the ``service.deadline.miss`` records,
and what the rules raise dumps the recorder's bundles and lands in the
manifest and on ``/metrics``.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from ..core.regularization import OnlineRegularizedAllocator
from ..simulation.accounting import SlotCosts
from ..simulation.observations import SlotObservation, SystemDescription
from ..simulation.spine import SlotStepper
from ..telemetry import (
    TraceContext,
    active_recorder,
    firing_objectives,
    get_registry,
    trace_scope,
    trace_span,
)
from .config import ServiceConfig
from .protocol import ProtocolError, parse_update


#: Slots whose deferred-phase and CPU timings ``stats()`` summarizes.
_TIMING_WINDOW = 4096


def percentile(values, fraction: float) -> float:
    """Exact nearest-rank percentile of a sequence (0.0 when empty)."""
    ordered = sorted(float(v) for v in values)
    if not ordered:
        return 0.0
    rank = max(1, int(np.ceil(fraction * len(ordered))))
    return ordered[rank - 1]


@dataclass(frozen=True)
class ServiceSlotResult:
    """What serving one slot produced.

    Attributes:
        slot: the slot index that was solved.
        costs: the slot's four paper costs (incremental accounting).
        total_cost: the session's accumulated P0 objective.
        latency_ms: wall time of the whole step (solve + accounting).
        partial: whether the solve was truncated by the budget.
        deadline_miss: partial, or latency above the configured deadline.
        trace_id: the requesting update's distributed-trace id, echoed on
            the reply so the client can stitch the round-trip into its
            trace; ``None`` for untraced requests (and then absent from
            the wire reply, keeping untraced replies byte-identical).
    """

    slot: int
    costs: SlotCosts
    total_cost: float
    latency_ms: float
    partial: bool
    deadline_miss: bool
    trace_id: str | None = None

    def as_reply(self) -> dict:
        """The ``slot_result`` wire reply for this slot."""
        reply = {
            "type": "slot_result",
            "slot": self.slot,
            "cost": self.costs.total,
            "operation": self.costs.operation,
            "service_quality": self.costs.service_quality,
            "reconfiguration": self.costs.reconfiguration,
            "migration": self.costs.migration,
            "total_cost": self.total_cost,
            "latency_ms": self.latency_ms,
            "partial": self.partial,
            "deadline_miss": self.deadline_miss,
        }
        if self.trace_id is not None:
            reply["trace_id"] = self.trace_id
        return reply


class AllocationSession:
    """A long-running allocation horizon over a fixed system description.

    Attributes:
        system: the time-invariant system being served.
        config: the serving configuration (budget, solver, aggregation).
        results: every :class:`ServiceSlotResult` produced so far.
    """

    def __init__(self, system: SystemDescription, config: ServiceConfig) -> None:
        self.system = system
        self.config = config
        self._allocator = OnlineRegularizedAllocator(
            eps1=config.eps1,
            eps2=config.eps2,
            tol=config.tol,
            aggregation=config.aggregation,
            budget=config.budget(),
        )
        self.results: list[ServiceSlotResult] = []
        self._deadline_misses = 0
        # The last stepped slot awaiting settle(), and per-slot timings of
        # the deferred phase's wall and both phases' thread CPU time.
        self._pending: tuple[ServiceSlotResult, float] | None = None
        self._deferred_ms: deque[float] = deque(maxlen=_TIMING_WINDOW)
        self._cpu_ms: deque[float] = deque(maxlen=_TIMING_WINDOW)
        self._start_stepper()

    def _start_stepper(self) -> None:
        self.controller = self._allocator.as_controller(self.system)
        self.stepper = SlotStepper(
            self.controller, self.system, keep_schedule=self.config.keep_schedule
        )

    # ----- slot processing ----------------------------------------------------

    @property
    def expected_slot(self) -> int:
        """The slot index the next update must carry."""
        return self.stepper.processed

    @property
    def deadline_misses(self) -> int:
        """Slots that missed the deadline (partial solve or late wall time)."""
        return self._deadline_misses

    @property
    def total_cost(self) -> float:
        """The accumulated P0 objective over every served slot."""
        if self.stepper.processed == 0:
            return 0.0
        return self.stepper.accumulator.breakdown().total

    def _solve_was_partial(self) -> bool:
        """Whether the slot just stepped hit its budget (either path)."""
        reports = getattr(self.controller, "last_reports", None)
        if reports:  # cohort-aggregated path
            return reports[-1].partial_solves > 0
        last = getattr(self.controller, "last_result", None)
        return bool(last is not None and last.partial)

    def _trim_history(self) -> None:
        """Bound the diagnostics lists a long-lived session accumulates."""
        keep = self.config.history
        algorithm = self._allocator
        if len(algorithm.last_solves) > keep:
            del algorithm.last_solves[:-keep]
        if len(algorithm.last_certificates) > keep:
            del algorithm.last_certificates[:-keep]
        reports = getattr(self.controller, "last_reports", None)
        if reports is not None and len(reports) > keep:
            del reports[:-keep]
        if len(self.results) > max(keep, 4096):
            del self.results[: -max(keep, 4096)]

    def step(
        self,
        observation: SlotObservation,
        *,
        trace: TraceContext | None = None,
    ) -> ServiceSlotResult:
        """Serve one slot's decision path: solve under budget, account, classify.

        When ``trace`` carries a client's wire context, the whole solve
        runs under it — every span and event the slot records joins the
        client's trace, and the result echoes the ``trace_id``. The slot's
        observation-only work waits for :meth:`settle`, which the next
        ``step`` runs first if the caller has not.
        """
        self.settle()
        cpu_start = time.thread_time()
        start = time.perf_counter()
        if trace is not None:
            with trace_scope(trace):
                with trace_span("service.slot", slot=int(observation.slot)):
                    _, costs = self.stepper.step(observation)
        else:
            _, costs = self.stepper.step(observation)
        latency_s = time.perf_counter() - start
        partial = self._solve_was_partial()
        miss = partial or (
            self.config.deadline_s is not None
            and latency_s > self.config.deadline_s
        )
        result = ServiceSlotResult(
            slot=int(observation.slot),
            costs=costs,
            total_cost=self.total_cost,
            latency_ms=latency_s * 1000.0,
            partial=partial,
            deadline_miss=miss,
            trace_id=None if trace is None else trace.trace_id,
        )
        self.results.append(result)
        telemetry = get_registry()
        telemetry.counter("service.slots").inc()
        telemetry.histogram("service.slot_latency_ms").observe(result.latency_ms)
        if miss:
            self._deadline_misses += 1
            telemetry.counter("service.deadline.misses").inc()
            if partial:
                telemetry.counter("service.deadline.partial_solves").inc()
        self._trim_history()
        self._pending = (result, time.thread_time() - cpu_start)
        return result

    def settle(self) -> None:
        """Run the last served slot's deferred phase (idempotent).

        The stepper's deferred phase (the disaggregation error, the
        ``aggregate.*``, ``slot`` and ``prof.phases`` records, the flight
        snapshot) and then, when telemetry is enabled, the session's own
        ``service.deadline.miss`` / ``service.slot`` records and the sink
        flush. The server calls it after writing the slot's reply and
        before it handles the next message; ``step``, ``reset_session``
        and ``stats`` call it first.
        """
        pending, self._pending = self._pending, None
        if pending is None:
            return
        result, step_cpu_s = pending
        cpu_start = time.thread_time()
        start = time.perf_counter()
        self.stepper.settle()
        telemetry = get_registry()
        if telemetry.enabled:
            if result.deadline_miss:
                telemetry.event(
                    "service.deadline.miss",
                    slot=result.slot,
                    latency_ms=result.latency_ms,
                    deadline_ms=(
                        None
                        if self.config.deadline_s is None
                        else self.config.deadline_s * 1000.0
                    ),
                    partial=result.partial,
                )
            trace = {} if result.trace_id is None else {"trace_id": result.trace_id}
            telemetry.event(
                "service.slot",
                slot=result.slot,
                latency_ms=result.latency_ms,
                partial=result.partial,
                deadline_miss=result.deadline_miss,
                total_cost=result.total_cost,
                **trace,
            )
            telemetry.maybe_flush()
        self._deferred_ms.append((time.perf_counter() - start) * 1000.0)
        self._cpu_ms.append((step_cpu_s + time.thread_time() - cpu_start) * 1000.0)

    # ----- message dispatch ---------------------------------------------------

    def handle(self, message: dict) -> dict:
        """Dispatch one parsed client message; always returns a reply dict.

        Protocol violations (bad shapes, late/future slots) produce an
        ``error`` reply and leave the session state untouched — the
        client may continue with a corrected update for the same slot.
        """
        kind = message.get("type")
        try:
            if kind == "hello":
                return self._welcome()
            if kind == "update":
                observation = parse_update(
                    message,
                    expected_slot=self.expected_slot,
                    num_clouds=self.system.num_clouds,
                    num_users=self.system.num_users,
                )
                trace = TraceContext.from_wire(message.get("trace"))
                return self.step(observation, trace=trace).as_reply()
            if kind == "reset":
                self.reset_session()
                return {"type": "reset_ok", "expected_slot": self.expected_slot}
            if kind == "stats":
                return {"type": "stats", **self.stats()}
        except ProtocolError as exc:
            get_registry().counter("service.protocol.rejected").inc()
            return {
                "type": "error",
                "error": str(exc),
                "expected_slot": self.expected_slot,
            }
        return {
            "type": "error",
            "error": f"unknown message type {kind!r}",
            "expected_slot": self.expected_slot,
        }

    def handle_line(self, line: str | bytes) -> dict:
        """Parse one wire line and dispatch it (torn lines become errors)."""
        from .protocol import parse_message

        try:
            message = parse_message(line)
        except ProtocolError as exc:
            get_registry().counter("service.protocol.rejected").inc()
            return {
                "type": "error",
                "error": str(exc),
                "expected_slot": self.expected_slot,
            }
        return self.handle(message)

    def _welcome(self) -> dict:
        return {
            "type": "welcome",
            "num_clouds": self.system.num_clouds,
            "num_users": self.system.num_users,
            "expected_slot": self.expected_slot,
            "deadline_s": self.config.deadline_s,
            "max_iterations": self.config.max_iterations,
            "aggregated": self.config.aggregation is not None,
        }

    # ----- lifecycle ----------------------------------------------------------

    def reset_session(self) -> None:
        """Start a fresh horizon: slot 0, cold caches.

        Clears *every* layer of the session's cross-slot state: the
        controller's carried decision (``controller.reset``) and the
        stepper's accumulator/residuals (a fresh :class:`SlotStepper`).
        The process-wide alert rules and flight recorder belong to the
        registry chain and keep their state.
        """
        self.settle()
        self.results = []
        self._deadline_misses = 0
        self._deferred_ms.clear()
        self._cpu_ms.clear()
        self._start_stepper()

    def stats(self) -> dict:
        """Session statistics: slots, costs, misses, latency percentiles.

        ``deferred_p50_ms`` is the median wall time of a slot's deferred
        phase (:meth:`settle`) and ``cpu_p50_ms`` the median thread CPU
        time of its :meth:`step` and :meth:`settle` together. Always
        includes the incident-plane counters of the process-wide flight
        recorder and alert host (zeros / empty when none is installed),
        so operators can see at a glance whether the plane is armed and
        what it has captured.
        """
        self.settle()
        latencies = [r.latency_ms for r in self.results]
        recorder = active_recorder()
        return {
            "slots": self.stepper.processed,
            "expected_slot": self.expected_slot,
            "total_cost": self.total_cost,
            "deadline_misses": self._deadline_misses,
            "latency_p50_ms": percentile(latencies, 0.50),
            "latency_p95_ms": percentile(latencies, 0.95),
            "latency_p99_ms": percentile(latencies, 0.99),
            "deferred_p50_ms": percentile(self._deferred_ms, 0.50),
            "cpu_p50_ms": percentile(self._cpu_ms, 0.50),
            "flight_snapshots": 0 if recorder is None else recorder.snapshots_taken,
            "incident_bundles": (
                [] if recorder is None
                else [str(path) for path in recorder.bundles_written]
            ),
            "slo_active": list(firing_objectives()),
        }
