"""Trace replay against the live service, with a batch cross-check.

:func:`run_loadgen` replays an observation stream at ``speed`` times
real time against an :class:`~repro.service.server.AllocationServer` —
an in-process one spawned on a free port by default, or an external
``host:port`` — and reports what serving *did* to the numbers:

* slot latency percentiles (p50/p95/p99, server-reported, exact
  nearest-rank);
* deadline misses and budget-truncated (partial) slots;
* the **realized-vs-batch cost delta**: the streamed total cost against
  an unbudgeted batch :func:`~repro.simulation.spine.simulate` of the
  same stream. At 1x speed with a generous deadline the two are equal to
  solver precision (the CI ``service-smoke`` gate); at high replay
  speeds the delta is the measured price of the degradation ladder.

The replay paces sends to ``slot_s / speed`` seconds per slot
(``speed=0`` = as fast as possible) and always drives slots in order —
the protocol rejects anything else. See docs/SERVING.md.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..core.regularization import OnlineRegularizedAllocator
from ..simulation.observations import SlotObservation, SystemDescription
from ..simulation.spine import simulate
from ..telemetry import TraceContext, current_trace, flight_session
from .config import ServiceConfig
from .protocol import ProtocolError, encode, observation_to_update
from .server import AllocationServer
from .session import AllocationSession, percentile


@dataclass(frozen=True)
class LoadgenReport:
    """What one replay measured.

    Attributes:
        slots: slots served.
        speed: the replay speed factor that was requested.
        wall_s: wall-clock seconds the replay took end to end.
        deadline_misses: slots the server classified as deadline misses.
        partial_slots: slots whose solve was budget-truncated.
        latency_p50_ms: median server-side slot latency.
        latency_p95_ms: 95th-percentile slot latency.
        latency_p99_ms: 99th-percentile slot latency.
        streamed_cost: total P0 objective realized by the service.
        batch_cost: total cost of the unbudgeted batch run of the same
            stream (``nan`` when the cross-check was skipped).
        cost_delta: ``streamed_cost - batch_cost`` (0 at 1x speed).
        flight_snapshots: solve-state snapshots the server's flight
            recorder captured (0 when the recorder is disabled).
        incident_bundles: paths of incident bundles the server wrote.
        slo_active: names of SLO objectives firing at the end of the
            replay (empty when the SLO plane is disabled or healthy).
        deferred_p50_ms: median server-side wall time of a slot's deferred
            phase, which runs after its reply (0 when not reported).
        cpu_p50_ms: median server thread CPU time of a slot's ``step``
            and ``settle`` together (0 when not reported).
    """

    slots: int
    speed: float
    wall_s: float
    deadline_misses: int
    partial_slots: int
    latency_p50_ms: float
    latency_p95_ms: float
    latency_p99_ms: float
    streamed_cost: float
    batch_cost: float
    cost_delta: float
    flight_snapshots: int = 0
    incident_bundles: tuple = ()
    slo_active: tuple = ()
    deferred_p50_ms: float = 0.0
    cpu_p50_ms: float = 0.0

    def as_dict(self) -> dict:
        """Plain-dict (JSON-ready) form."""
        return {
            "slots": self.slots,
            "speed": self.speed,
            "wall_s": self.wall_s,
            "deadline_misses": self.deadline_misses,
            "partial_slots": self.partial_slots,
            "latency_p50_ms": self.latency_p50_ms,
            "latency_p95_ms": self.latency_p95_ms,
            "latency_p99_ms": self.latency_p99_ms,
            "streamed_cost": self.streamed_cost,
            "batch_cost": self.batch_cost,
            "cost_delta": self.cost_delta,
            "flight_snapshots": self.flight_snapshots,
            "incident_bundles": list(self.incident_bundles),
            "slo_active": list(self.slo_active),
            "deferred_p50_ms": self.deferred_p50_ms,
            "cpu_p50_ms": self.cpu_p50_ms,
        }

    def render(self) -> str:
        """Human-readable replay summary."""
        lines = [
            f"Loadgen replay: {self.slots} slots at {self.speed:g}x "
            f"in {self.wall_s:.2f}s",
            f"  slot latency ms     p50 {self.latency_p50_ms:9.2f}   "
            f"p95 {self.latency_p95_ms:9.2f}   p99 {self.latency_p99_ms:9.2f}",
            f"  server per slot ms  deferred p50 {self.deferred_p50_ms:.2f}   "
            f"cpu p50 {self.cpu_p50_ms:.2f}",
            f"  deadline misses     {self.deadline_misses}"
            f" ({self.partial_slots} budget-truncated solves)",
            f"  streamed cost       {self.streamed_cost:.6f}",
        ]
        if np.isfinite(self.batch_cost):
            lines.append(
                f"  batch cost          {self.batch_cost:.6f}   "
                f"(delta {self.cost_delta:+.3e})"
            )
        if self.flight_snapshots or self.incident_bundles:
            lines.append(
                f"  flight recorder     {self.flight_snapshots} snapshots, "
                f"{len(self.incident_bundles)} bundle(s) written"
            )
            for path in self.incident_bundles:
                lines.append(f"    bundle {path}")
        if self.slo_active:
            lines.append(
                "  SLOs firing         " + ", ".join(self.slo_active)
            )
        return "\n".join(lines)


async def _replay(
    observations: Sequence[SlotObservation],
    *,
    host: str,
    port: int,
    period_s: float,
    trace_root: TraceContext | None = None,
) -> tuple[list[dict], dict | None]:
    """Send the stream over one connection; return (slot replies, stats).

    After the last slot a ``stats`` request is sent on the same
    connection, so the server-side session counters (deadline misses,
    flight-recorder snapshots, incident bundles, firing SLOs) come back
    over the wire — external servers report them exactly like the
    in-process one.

    When ``trace_root`` is set (the replay runs under an active trace,
    e.g. ``repro-edge serve --loadgen --trace-context``), every update
    carries a child context of it — each server-side solve joins the
    replay's trace and each ``slot_result`` echoes its ``trace_id``.
    """
    reader, writer = await asyncio.open_connection(host, port)
    replies: list[dict] = []
    stats: dict | None = None
    try:
        writer.write(encode({"type": "hello"}))
        await writer.drain()
        welcome = json.loads(await reader.readline())
        if welcome.get("type") != "welcome":
            raise ProtocolError(f"expected welcome, got {welcome}")
        start = time.perf_counter()
        for index, observation in enumerate(observations):
            if period_s > 0:
                target = start + index * period_s
                delay = target - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
            ctx = None if trace_root is None else trace_root.child()
            writer.write(encode(observation_to_update(observation, trace=ctx)))
            await writer.drain()
            reply = json.loads(await reader.readline())
            if reply.get("type") != "slot_result":
                raise ProtocolError(
                    f"slot {observation.slot} rejected: {reply}"
                )
            replies.append(reply)
        writer.write(encode({"type": "stats"}))
        await writer.drain()
        reply = json.loads(await reader.readline())
        if reply.get("type") == "stats":
            stats = reply
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass
    return replies, stats


def batch_reference_cost(
    system: SystemDescription,
    observations: Iterable[SlotObservation],
    config: ServiceConfig,
) -> float:
    """The unbudgeted batch cost of the same stream (the comparison target).

    Identical allocator settings minus the budget: what the service
    *would* have paid with unlimited solve time per slot. It runs outside
    the flight recorder, so an armed run's ring and bundles hold only the
    served slots.
    """
    allocator = OnlineRegularizedAllocator(
        eps1=config.eps1,
        eps2=config.eps2,
        tol=config.tol,
        aggregation=config.aggregation,
    )
    with flight_session(None):
        result = simulate(
            allocator.as_controller(system),
            observations,
            system,
            keep_schedule=False,
        )
    return result.total_cost


def run_loadgen(
    system: SystemDescription,
    observations: Sequence[SlotObservation],
    config: ServiceConfig,
    *,
    speed: float = 1.0,
    slot_s: float = 1.0,
    host: str | None = None,
    port: int | None = None,
    batch_reference: bool = True,
) -> LoadgenReport:
    """Replay a stream against the service and measure the outcome.

    Args:
        system: the system description the server serves.
        observations: the slot stream to replay (in slot order, from 0).
        config: the serving configuration (spawned server and batch
            reference both derive from it).
        speed: replay speed factor; ``0`` replays as fast as possible.
        slot_s: real-time slot duration in seconds (1x pace).
        host: an external server to target; ``None`` spawns an
            in-process server on a free port (always torn down after).
        port: the external server's port (required with ``host``).
        batch_reference: also run the unbudgeted batch solve of the same
            stream for the realized-vs-batch cost delta (skip for very
            long streams).
    """
    observations = list(observations)
    if not observations:
        raise ValueError("loadgen needs at least one observation")
    if (host is None) != (port is None):
        raise ValueError("pass host and port together (or neither)")
    period_s = 0.0 if speed <= 0 else slot_s / speed
    trace_root = current_trace()

    async def _run() -> tuple[list[dict], dict | None]:
        server = None
        target_host, target_port = host, port
        if target_host is None:
            server = AllocationServer(
                AllocationSession(system, config), port=0
            )
            await server.start()
            target_host, target_port = server.host, server.port
        try:
            replies, stats = await _replay(
                observations,
                host=target_host,
                port=int(target_port),
                period_s=period_s,
                trace_root=trace_root,
            )
            if stats is None and server is not None:
                stats = server.session.stats()
            return replies, stats
        finally:
            if server is not None:
                await server.stop()

    start = time.perf_counter()
    replies, stats = asyncio.run(_run())
    wall_s = time.perf_counter() - start
    stats = stats or {}
    latencies = [float(r["latency_ms"]) for r in replies]
    streamed_cost = float(replies[-1]["total_cost"])
    batch_cost = float("nan")
    if batch_reference:
        batch_cost = batch_reference_cost(system, observations, config)
    return LoadgenReport(
        slots=len(replies),
        speed=speed,
        wall_s=wall_s,
        deadline_misses=sum(1 for r in replies if r["deadline_miss"]),
        partial_slots=sum(1 for r in replies if r["partial"]),
        latency_p50_ms=percentile(latencies, 0.50),
        latency_p95_ms=percentile(latencies, 0.95),
        latency_p99_ms=percentile(latencies, 0.99),
        streamed_cost=streamed_cost,
        batch_cost=batch_cost,
        cost_delta=streamed_cost - batch_cost,
        flight_snapshots=int(stats.get("flight_snapshots", 0)),
        incident_bundles=tuple(stats.get("incident_bundles", ()) or ()),
        slo_active=tuple(stats.get("slo_active", ()) or ()),
        deferred_p50_ms=float(stats.get("deferred_p50_ms", 0.0)),
        cpu_p50_ms=float(stats.get("cpu_p50_ms", 0.0)),
    )
