#!/usr/bin/env python3
"""Benchmark of the edge allocation service and the Figure 2 sweep.

Run from the repository root::

    python3 perfbench/run.py --workload serve-direct --seed 1 --seconds 20 --trace 0

Workloads (see ``perfbench/README.md``): ``serve-direct``, ``serve-budget``
and ``serve-city`` send open-loop JSON-lines traffic over TCP to the
allocation server in its own process; ``sweep-fig2`` runs the Figure 2
sweep in its own process. Every run checks the program's outputs.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it repeats the traffic against a traced server (or sweep)
and reports the per-layer metrics. Report lines come first; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import pickle
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_ROOT = HERE / ".out"
REFERENCE_TABLE = HERE / "fig2_reference.json"

import calibrate  # noqa: E402
import stats  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED,
    HELD_OUT_SEED,
    WORKLOADS,
    ServeWorkload,
    city_stream,
    fig2_stream,
    service_config,
)

#: Spawns per run whose spawn-to-ready times give ``setup_s`` (median).
SETUP_REPEATS = 5
#: Streamed cost vs batch cost, relative to max(1, |batch|).
COST_RTOL = 1e-9
#: Ratio table vs the stored table (``repro.bench.compare``'s cost rtol).
TABLE_RTOL = 1e-6
#: The streamed cost is checked against a batch run of the stream's first
#: this many slots (all of it when shorter), which bounds the reference's
#: run time; serve-budget's unbudgeted cost_ratio reference is shorter still.
REFERENCE_SLOTS = 120
BUDGET_RATIO_SLOTS = 60
#: A generator whose p99 lateness exceeds this share of the period fell
#: behind; its latencies are flagged, not reported as the program's.
GENERATOR_BEHIND = 0.25
#: Per-layer self times on the slot path must sum to the session step time
#: within this share.
SLOT_PATH_TOLERANCE = 0.05
#: Leading updates of each phase left out of latency statistics: the first
#: slot of a horizon solves cold, and the next one queues behind it.
WARMUP_UPDATES = 2
#: A ``--trace 0`` run replays its stream (or the sweep) at least this many
#: times; each item's time is its fastest repeat (see ``stats.best_of``).
MIN_PASSES = 3
#: A sweep run makes ``--seconds`` / this many sweeps (at least
#: ``MIN_PASSES``): a count fixed by the arguments, not by how fast the
#: sweeps ran.
SWEEP_SECONDS = 8.0
START_TIMEOUT_S = 60.0
REPLY_TIMEOUT_S = 30.0

END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "cost_ratio": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "protocol.decode_ms": "ms",
    "protocol.update_bytes": "bytes",
    "protocol.rejected": "count",
    "server.wire_gap_p50_ms": "ms",
    "server.queue_wait_p50_ms": "ms",
    "session.step_p50_ms": "ms",
    "session.step_tail_ms": "ms",
    "session.deadline_misses": "count",
    "session.self_ms": "ms",
    "spine.self_ms": "ms",
    "controller.self_ms": "ms",
    "accounting.update_ms": "ms",
    "subproblem.build_ms": "ms",
    "ipm.solve_ms": "ms",
    "ipm.solves": "count",
    "ipm.newton_per_solve": "count",
    "ipm.partial_solves": "count",
    "ipm.assemble_ms": "ms",
    "ipm.factorize_smw_ms": "ms",
    "ipm.line_search_ms": "ms",
    "ipm.convergence_check_ms": "ms",
    "batched.solve_ms": "ms",
    "batched.calls": "count",
    "batched.lanes_per_call": "count",
    "batched.lane_iterations": "count",
    "lp.solve_ms": "ms",
    "lp.solves": "count",
    "solver.fallbacks": "count",
    "solver.circuit_opened": "count",
    "regularization.repair_ms": "ms",
    "regularization.attached_repair_share": "share",
    "aggregate.cohort_ms": "ms",
    "aggregate.disaggregate_ms": "ms",
    "aggregate.shard_solve_ms": "ms",
    "aggregate.cohorts": "count",
    "aggregate.warm_cohort_hit_share": "share",
    "sweep.cell_p50_ms": "ms",
    "sweep.cell_max_ms": "ms",
    "sweep.worker_busy_share": "share",
    "loadgen.lateness_p99_ms": "ms",
    "loadgen.encode_ms": "ms",
    "trace.overhead_pct": "%",
}


class BenchError(RuntimeError):
    """The benchmark could not drive the program (not a program failure)."""


@dataclass
class Outcome:
    """What one run counted, checked and measured."""

    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)
    lines: list = field(default_factory=list)

    def note(self, text: str) -> None:
        self.lines.append(text)

    def report(self, name: str, value: float, unit: str, extra: str = "") -> None:
        self.note(f"metric {name} = {value:.6g} {unit}{extra}")

    def check(self, ok: bool, what: str, weight: int) -> None:
        """Record a correctness check; a failure counts ``weight`` failed."""
        self.note(f"check {'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            self.failed += weight


# ----- open-loop traffic -----------------------------------------------------


@dataclass
class Phase:
    """One open-loop phase: updates sent on a fixed schedule."""

    rate_hz: float
    due: list
    sent: list
    received: list
    replies: list

    @property
    def period_ms(self) -> float:
        return 1000.0 / self.rate_hz

    @property
    def answered(self) -> list[int]:
        """Indices answered with the ``slot_result`` of their own slot."""
        return [
            i
            for i, reply in enumerate(self.replies)
            if reply is not None
            and reply.get("type") == "slot_result"
            and reply.get("slot") == i
        ]

    @property
    def failed(self) -> int:
        return len(self.replies) - len(self.answered)

    @property
    def measured(self) -> list[int]:
        """Answered indices past the warm-up (slot 0 of a horizon is cold)."""
        return [i for i in self.answered if i >= WARMUP_UPDATES]

    @property
    def latencies_ms(self) -> list[float]:
        """Due time to reply, for every measured update."""
        return [(self.received[i] - self.due[i]) * 1000.0 for i in self.measured]

    @property
    def latency_by_slot(self) -> dict[int, float]:
        """Due time to reply of each measured update, by slot."""
        return dict(zip(self.measured, self.latencies_ms))

    @property
    def step_ms(self) -> list[float]:
        """The server's own step time (reply ``latency_ms``), measured updates."""
        return [float(self.replies[i]["latency_ms"]) for i in self.measured]

    @property
    def lateness_ms(self) -> list[float]:
        """How late the generator sent each update."""
        return [(s - d) * 1000.0 for s, d in zip(self.sent, self.due)]

    @property
    def generator_behind(self) -> bool:
        return (
            stats.nearest_rank(self.lateness_ms, 0.99)
            > GENERATOR_BEHIND * self.period_ms
        )

    @property
    def total_cost(self) -> float | None:
        if self.failed or not self.replies:
            return None
        return float(self.replies[-1]["total_cost"])

    def passes(self) -> bool:
        return stats.rung_passes(self.latencies_ms, self.period_ms, self.failed)

    def describe(self) -> str:
        latencies = self.latencies_ms or [float("nan")]
        value, fraction, beyond = stats.tail(latencies)
        return (
            f"{self.rate_hz:g} Hz: {len(self.replies)} updates, p50 "
            f"{stats.median(latencies):.2f} ms, tail p{100 * fraction:.1f} "
            f"{value:.2f} ms ({beyond} beyond), generator lateness p99 "
            f"{stats.nearest_rank(self.lateness_ms, 0.99):.2f} ms, "
            + ("generator behind" if self.generator_behind else
               "pass" if self.passes() else "fail")
        )


class _Process:
    """A child process of the benchmark speaking lines on stdin/stdout."""

    def __init__(self, command: list[str]) -> None:
        self.spawned = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, *command],
            cwd=ROOT,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def readline(self) -> str:
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"{self.proc.args[1]} exited early")
        return line

    def close(self) -> dict:
        """Close stdin, wait for the process, return its ``bye`` payload."""
        try:
            out, _ = self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            out, _ = self.proc.communicate()
        for line in reversed(out.splitlines()):
            if line.startswith("bye "):
                return json.loads(line[4:])
        raise BenchError(f"{self.proc.args[1]} ended without a bye line")

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


class Server(_Process):
    """The allocation server in its own process, plus one client connection."""

    def __init__(self, system_path: Path, workload: ServeWorkload, spans=None):
        command = [
            str(HERE / "server.py"),
            "--system",
            str(system_path),
            "--mode",
            workload.mode,
        ]
        if workload.max_iterations is not None:
            command += ["--max-iterations", str(workload.max_iterations)]
        if spans is not None:
            command += ["--spans", str(spans)]
        super().__init__(command)
        self.reader = self.writer = None
        self.setup_s = float("nan")

    async def connect(self) -> dict:
        """Wait for ``ready``, connect, handshake; time spawn to welcome."""
        loop = asyncio.get_running_loop()
        line = await asyncio.wait_for(
            loop.run_in_executor(None, self.readline), START_TIMEOUT_S
        )
        if not line.startswith("ready "):
            raise BenchError(f"server did not start: {line!r}")
        self.reader, self.writer = await asyncio.open_connection(
            "127.0.0.1", int(line.split()[1])
        )
        # Open loop: queue every update in the transport, never block on it.
        self.writer.transport.set_write_buffer_limits(high=1 << 30)
        welcome = await self.request({"type": "hello"})
        self.setup_s = time.monotonic() - self.spawned
        if welcome.get("type") != "welcome":
            raise BenchError(f"expected welcome, got {welcome}")
        return welcome

    async def request(self, message: dict) -> dict:
        self.writer.write((json.dumps(message) + "\n").encode())
        await self.writer.drain()
        line = await asyncio.wait_for(self.reader.readline(), REPLY_TIMEOUT_S)
        return json.loads(line)

    async def reset(self) -> None:
        reply = await self.request({"type": "reset"})
        if reply.get("type") != "reset_ok":
            raise BenchError(f"reset refused: {reply}")

    async def phase(self, lines: list[bytes], rate_hz: float) -> Phase:
        """Send ``lines`` at ``rate_hz`` regardless of replies; collect them."""
        period = 1.0 / rate_hz
        n = len(lines)
        start = time.monotonic() + 0.02
        due = [start + i * period for i in range(n)]
        sent = [0.0] * n
        received: list = [None] * n
        replies: list = [None] * n

        async def send() -> None:
            for i, line in enumerate(lines):
                delay = due[i] - time.monotonic()
                if delay > 0:
                    await asyncio.sleep(delay)
                sent[i] = time.monotonic()
                self.writer.write(line)
            await self.writer.drain()

        async def receive() -> None:
            for i in range(n):
                line = await self.reader.readline()
                if not line:
                    return
                received[i] = time.monotonic()
                replies[i] = json.loads(line)

        sender = asyncio.create_task(send())
        try:
            await asyncio.wait_for(receive(), n * period + REPLY_TIMEOUT_S)
        except (asyncio.TimeoutError, ConnectionError) as exc:
            sender.cancel()
            raise BenchError(f"server stopped answering at {rate_hz:g} Hz: {exc!r}") from exc
        await sender
        return Phase(rate_hz, due, sent, received, replies)

    async def shutdown(self) -> dict:
        if self.writer is not None:
            self.writer.close()
            await self.writer.wait_closed()
        return self.close()


# ----- serve workloads -------------------------------------------------------


@dataclass
class ServeInputs:
    system: object
    observations: list
    lines: list
    system_path: Path
    encode_ms: float

    @property
    def update_bytes(self) -> float:
        return sum(len(line) for line in self.lines) / len(self.lines)


def _serve_inputs(workload: ServeWorkload, seed: int, slots: int, out: Path):
    from repro.service.protocol import encode, observation_to_update

    if workload.mode == "city":
        system, observations = city_stream(seed, slots)
    else:
        system, observations = fig2_stream(seed, slots)
    system_path = out / "system.pkl"
    with open(system_path, "wb") as handle:
        pickle.dump(system, handle)
    # Updates are encoded before any phase, so encoding never delays a send.
    start = time.perf_counter()
    lines = [encode(observation_to_update(obs)) for obs in observations]
    encode_ms = (time.perf_counter() - start) * 1000.0 / len(lines)
    return ServeInputs(system, observations, lines, system_path, encode_ms)


def _streamed_reference(workload: ServeWorkload, inputs: ServeInputs, slots: int):
    """The batch cost the streamed cost must equal, over ``slots`` slots.

    Unbudgeted workloads compare with ``repro.service.batch_reference_cost``
    (an unbudgeted batch ``simulate()``); serve-budget compares with a batch
    ``simulate()`` under the same iteration cap.
    """
    from repro.core.regularization import OnlineRegularizedAllocator
    from repro.service import batch_reference_cost
    from repro.simulation.spine import simulate

    config = service_config(workload.mode, workload.max_iterations)
    observations = inputs.observations[:slots]
    if config.budget() is None:
        return batch_reference_cost(inputs.system, observations, config)
    allocator = OnlineRegularizedAllocator(
        eps1=config.eps1, eps2=config.eps2, tol=config.tol, budget=config.budget()
    )
    return simulate(
        allocator.as_controller(inputs.system),
        observations,
        inputs.system,
        keep_schedule=False,
    ).total_cost


def _cost_after(phase: Phase, slots: int) -> float | None:
    """The streamed total cost after the first ``slots`` slots."""
    reply = phase.replies[slots - 1]
    if phase.failed or reply is None:
        return None
    return float(reply["total_cost"])


def _check_phase(outcome: Outcome, phase: Phase, reference: float, slots: int,
                 label: str) -> None:
    outcome.attempted += len(phase.replies)
    outcome.failed += phase.failed
    outcome.check(phase.failed == 0, f"{label}: every update answered in order", 0)
    total = _cost_after(phase, slots)
    ok = total is not None and stats.relative_gap(total, reference) <= COST_RTOL
    outcome.check(
        ok,
        f"{label}: streamed cost after {slots} slots {total} vs batch "
        f"{reference:.12g} (rtol {COST_RTOL:g})",
        0 if phase.failed else len(phase.replies),
    )


def _describe_gauges(gauges: list[float]) -> str:
    return (
        f"machine gauge {' '.join(f'{g:.1f}' for g in gauges)} ms "
        f"(reference {calibrate.REFERENCE_MS:g} ms; calibrate.py)"
    )


def _passes(workload: ServeWorkload, seconds: float) -> int:
    """Passes over the stream in a ``--trace 0`` run: fixed by the arguments."""
    pass_s = workload.stream_slots / workload.nominal_hz
    return max(MIN_PASSES, round(seconds / pass_s))


async def _serve_e2e(workload: ServeWorkload, inputs: ServeInputs, passes: int):
    """Setup spawns, then ``passes`` replays of the stream on the last one.

    Each pass after the first starts with a ``reset``: a fresh horizon with
    cold caches, so every pass serves the stream exactly as the first did.
    The machine's speed is gauged before the spawns and after the spawns
    and every pass, while the server is idle (``calibrate.py``).
    """
    setups: list[float] = []
    phases: list[Phase] = []
    gauges = [calibrate.gauge()]
    server = None
    try:
        for _ in range(SETUP_REPEATS):
            if server is not None:
                await server.shutdown()
            server = Server(inputs.system_path, workload)
            await server.connect()
            setups.append(server.setup_s)
        gauges.append(calibrate.gauge())
        for index in range(passes):
            if index:
                await server.reset()
            phases.append(await server.phase(inputs.lines, workload.nominal_hz))
            gauges.append(calibrate.gauge())
        bye = await server.shutdown()
        server = None
    finally:
        if server is not None:
            server.kill()
    return setups, phases, gauges, bye


def _cost_ratio(workload, inputs, nominal: Phase, reference: float, slots: int):
    """Streamed cost / unbudgeted batch cost, and the slots it covers."""
    if workload.max_iterations is None:
        return _cost_after(nominal, slots), reference, slots
    from repro.service import batch_reference_cost

    slots = min(BUDGET_RATIO_SLOTS, slots)
    streamed = _cost_after(nominal, slots)
    unbudgeted = batch_reference_cost(
        inputs.system,
        inputs.observations[:slots],
        service_config(workload.mode, None),
    )
    return streamed, unbudgeted, slots


def run_serve(name: str, seed: int, seconds: float, trace: bool, out: Path) -> Outcome:
    workload = WORKLOADS[name]
    if trace:
        # The traced run splits its time between the ladder and the traced
        # phase, which serves one longer stream once.
        slots = max(4 * WARMUP_UPDATES, round(workload.nominal_hz * seconds * 0.5))
        passes = 1
    else:
        slots, passes = workload.stream_slots, _passes(workload, seconds)
    inputs = _serve_inputs(workload, seed, slots, out)
    outcome = Outcome()
    outcome.note(
        f"workload {name}: {inputs.system.num_users} users x "
        f"{inputs.system.num_clouds} clouds, nominal {workload.nominal_hz:g} Hz "
        f"x {slots} updates of {inputs.update_bytes:.0f} B x {passes} pass(es), "
        "open loop, one connection"
    )
    if trace:
        return _serve_traced(workload, inputs, slots, outcome, out)

    setups, phases, gauges, bye = asyncio.run(_serve_e2e(workload, inputs, passes))
    ref_slots = min(REFERENCE_SLOTS, slots)
    reference = _streamed_reference(workload, inputs, ref_slots)
    for index, phase in enumerate(phases):
        _check_phase(outcome, phase, reference, ref_slots, f"pass {index + 1}")
    streamed, unbudgeted, ratio_slots = _cost_ratio(
        workload, inputs, phases[0], reference, ref_slots
    )
    cost_ratio = float("nan") if streamed is None else streamed / unbudgeted
    # Each slot's fastest pass, since slow spells only add time; then every
    # time at reference speed (calibrate.py).
    factor = calibrate.scale(gauges)
    setup_s = stats.median(setups) * factor
    raw = list(stats.best_of(p.latency_by_slot for p in phases).values()) or [
        float("nan")
    ]
    latencies = [value * factor for value in raw]
    tail_value, tail_fraction, beyond = stats.tail(latencies)
    period = 1000.0 / workload.nominal_hz
    late = sum(1 for p in phases for value in p.latencies_ms if value > period)
    updates = sum(len(p.replies) for p in phases)
    failed_updates = sum(p.failed for p in phases)
    steps = [step for p in phases for step in p.step_ms] or [float("nan")]

    for index, phase in enumerate(phases):
        outcome.note(f"phase pass {index + 1} " + phase.describe())
        if phase.generator_behind:
            outcome.note(f"flag: the generator fell behind in pass {index + 1}; "
                         "its latencies are not the program's")
    outcome.note(
        f"server step p50 {stats.median(steps):.2f} ms over all passes, "
        f"client encode {inputs.encode_ms:.3f} ms per update (before the passes)"
    )
    outcome.note(_describe_gauges(gauges))
    outcome.note(
        f"as measured: setup {stats.median(setups):.4f} s, slot latency p50 "
        f"{stats.median(raw):.3f} ms, tail {stats.tail(raw)[0]:.3f} ms"
    )
    outcome.report("setup_s", setup_s, "s",
                   f" (median of {len(setups)} spawns, at reference speed)")
    outcome.report("slot_latency_p50_ms", stats.median(latencies), "ms",
                   f" ({len(latencies)} slots, each its fastest of {passes} passes, "
                   "at reference speed)")
    outcome.report("slot_latency_tail_ms", tail_value, "ms",
                   f" (p{100 * tail_fraction:.1f}, {beyond} samples beyond)")
    outcome.report("over_limit_fraction", (late + failed_updates) / updates, "share",
                   " (every pass)")
    outcome.report("failed_fraction", outcome.failed / outcome.attempted, "share")
    outcome.report("cost_ratio", cost_ratio, "ratio",
                   f" (over {ratio_slots} slots)")
    outcome.report("total_cost", phases[0].total_cost or float("nan"), "cost")
    outcome.report("peak_rss_mb", bye["maxrss_kb"] / 1024.0, "MB")
    outcome.note("metric max_slot_rate_hz: reported by the --trace 1 run")
    outcome.metrics = {
        "setup_s": setup_s,
        "latency_p50_ms": stats.median(latencies),
        "latency_tail_ms": tail_value,
        "cost_ratio": cost_ratio,
        "peak_rss_mb": bye["maxrss_kb"] / 1024.0,
    }
    return outcome


async def _ladder_then_traced(workload, inputs, nominal_n, spans_path):
    """The rate ladder on an untraced server, then the traced nominal phase.

    The ladder starts at the nominal rate and climbs until a rung fails or
    the generator falls behind; each rung replays the stream from slot 0.
    """
    rungs: list[Phase] = []
    rung_n = min(workload.rung_slots, nominal_n)
    server = Server(inputs.system_path, workload)
    try:
        await server.connect()
        for rate in (workload.nominal_hz, *workload.ladder):
            if rungs:
                await server.reset()
            rung = await server.phase(inputs.lines[:rung_n], rate)
            rungs.append(rung)
            if rung.generator_behind or not rung.passes():
                break
        await server.shutdown()
    finally:
        server.kill()
    server = Server(inputs.system_path, workload, spans=spans_path)
    try:
        await server.connect()
        traced = await server.phase(inputs.lines[:nominal_n], workload.nominal_hz)
        bye = await server.shutdown()
    finally:
        server.kill()
    return rungs, traced, bye


def _per_slot_ms(selfs: dict, names, slots: int) -> float:
    return sum(selfs.get(name, 0.0) for name in names) * 1000.0 / slots


def _serve_traced(workload, inputs, nominal_n, outcome: Outcome, out: Path):
    spans_path = out / "spans.json"
    rungs, traced, bye = asyncio.run(
        _ladder_then_traced(workload, inputs, nominal_n, spans_path)
    )
    ref_slots = min(REFERENCE_SLOTS, nominal_n)
    reference = _streamed_reference(workload, inputs, ref_slots)
    _check_phase(outcome, traced, reference, ref_slots, "traced nominal")
    for rung in rungs:
        rung_n = len(rung.replies)
        expected = traced.replies[rung_n - 1]
        expected = None if expected is None else float(expected["total_cost"])
        outcome.attempted += rung_n
        outcome.failed += rung.failed
        ok = (
            expected is not None
            and rung.total_cost is not None
            and stats.relative_gap(rung.total_cost, expected) <= COST_RTOL
        )
        outcome.check(
            ok,
            f"rung {rung.rate_hz:g} Hz: replayed prefix cost equals the traced "
            "phase's",
            0 if rung.failed else rung_n,
        )
    recorded = json.loads(spans_path.read_text())
    spans, phases = recorded["spans"], recorded["phases"]
    selfs = stats.self_times(spans)
    slots = max(1, len(traced.answered))
    counters = bye["counters"]

    handle_start = {
        span["slot"]: span["start"]
        for span in spans
        if span["name"] == "session.handle" and span["slot"] is not None
    }
    queue_wait = [
        (handle_start[i] - traced.due[i]) * 1000.0
        for i in traced.measured
        if i in handle_start
    ]
    wire_gap = [
        latency - step for latency, step in zip(traced.latencies_ms, traced.step_ms)
    ]
    solves = [span for span in spans if span["name"] == "ipm.solve"]
    partial_slots = sum(1 for i in traced.answered if traced.replies[i]["partial"])
    cohorts = [span["cohorts"] for span in spans if "cohorts" in span]
    # The slot path: every span under session.step. Their self times sum to
    # the session.step spans; those must match the server's own step times.
    slot_path_s = sum(
        span["end"] - span["start"] for span in spans if span["name"] == "session.step"
    )
    step_sum_s = sum(traced.replies[i]["latency_ms"] for i in traced.answered) / 1000.0
    gap = abs(slot_path_s - step_sum_s) / max(step_sum_s, 1e-12)
    outcome.check(
        gap <= SLOT_PATH_TOLERANCE,
        f"slot-path self times sum to the session step time within "
        f"{SLOT_PATH_TOLERANCE:.0%} (gap {gap:.2%})",
        1,
    )
    nan = [float("nan")]
    plain_p50 = stats.median(rungs[0].step_ms or nan)
    traced_p50 = stats.median(traced.step_ms or nan)
    passing = [
        rung.rate_hz for rung in rungs if rung.passes() and not rung.generator_behind
    ]
    limited = any(rung.generator_behind for rung in rungs)
    for rung in rungs:
        outcome.note("phase rung " + rung.describe())
    outcome.note("phase traced " + traced.describe())
    outcome.report("max_slot_rate_hz", max(passing, default=0.0), "Hz",
                   " (generator-limited)" if limited else "")
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics.update(
        {
            "protocol.decode_ms": _per_slot_ms(
                selfs, ("protocol.parse_message", "protocol.parse_update"), slots
            ),
            "protocol.update_bytes": inputs.update_bytes,
            "protocol.rejected": counters["service.protocol.rejected"],
            "server.wire_gap_p50_ms": stats.median(wire_gap or nan),
            "server.queue_wait_p50_ms": stats.median(queue_wait or nan),
            "session.step_p50_ms": traced_p50,
            "session.step_tail_ms": stats.tail(traced.step_ms or nan)[0],
            "session.deadline_misses": sum(
                1 for i in traced.answered if traced.replies[i]["deadline_miss"]
            ),
            "session.self_ms": _per_slot_ms(
                selfs, ("session.handle", "session.step"), slots
            ),
            "spine.self_ms": _per_slot_ms(selfs, ("spine.step",), slots),
            "controller.self_ms": _per_slot_ms(selfs, ("controller.observe",), slots),
            "accounting.update_ms": _per_slot_ms(selfs, ("accounting.update",), slots),
            "subproblem.build_ms": _per_slot_ms(selfs, ("subproblem.build",), slots),
            "ipm.solve_ms": _per_slot_ms(selfs, ("ipm.solve",), slots),
            "ipm.solves": len(solves),
            "ipm.newton_per_solve": (
                sum(span.get("iterations", 0) for span in solves) / len(solves)
                if solves else 0.0
            ),
            "ipm.partial_solves": sum(1 for span in solves if span.get("partial")),
            "solver.fallbacks": counters["solver.fallbacks"],
            "solver.circuit_opened": counters["solver.circuit_breaker.opened"],
            "regularization.repair_ms": _per_slot_ms(
                selfs, ("regularization.step",), slots
            ),
            "regularization.attached_repair_share": (
                counters["solver.partial.attached_repair"] / partial_slots
                if partial_slots else 0.0
            ),
            "aggregate.cohort_ms": _per_slot_ms(selfs, ("aggregate.cohort",), slots),
            "aggregate.disaggregate_ms": _per_slot_ms(
                selfs, ("aggregate.disaggregate",), slots
            ),
            "aggregate.shard_solve_ms": _per_slot_ms(
                selfs, ("aggregate.shard_solve",), slots
            ),
            "aggregate.cohorts": sum(cohorts) / len(cohorts) if cohorts else 0.0,
            "aggregate.warm_cohort_hit_share": (
                counters["aggregate.warm_cohort_hits"] / counters["aggregate.slots"]
                if counters["aggregate.slots"] else 0.0
            ),
            "loadgen.lateness_p99_ms": stats.nearest_rank(traced.lateness_ms, 0.99),
            "loadgen.encode_ms": inputs.encode_ms,
            "trace.overhead_pct": 100.0 * (traced_p50 - plain_p50) / plain_p50,
        }
    )
    for name in ("assemble", "factorize_smw", "line_search", "convergence_check"):
        metrics[f"ipm.{name}_ms"] = phases.get(f"ipm.{name}", 0.0) / slots
    outcome.metrics = metrics
    return outcome


# ----- the Figure 2 sweep ----------------------------------------------------


class Sweep(_Process):
    """The sweep process: imports and roster at spawn, then sweeps on demand."""

    def __init__(self) -> None:
        super().__init__([str(HERE / "sweep_proc.py")])
        line = self.readline()
        if line.strip() != "ready":
            raise BenchError(f"sweep process did not start: {line!r}")
        self.setup_s = time.monotonic() - self.spawned

    def sweep(self, seed: int, trace: bool) -> dict:
        command = {"seed": seed, "workers": os.cpu_count() or 1, "trace": trace}
        self.proc.stdin.write(json.dumps(command) + "\n")
        self.proc.stdin.flush()
        return json.loads(self.readline())


def _grid_seed(seed: int, index: int) -> int:
    """Sweep 0 of every run uses the stored table's seed, the rest the run's."""
    return DEFAULT_SEED if index == 0 else 100_000 + 1_000 * seed


def _check_sweep(outcome: Outcome, reply: dict, grid_seed: int, cells: int) -> None:
    outcome.attempted += cells
    if "error" in reply:
        outcome.check(False, f"sweep at seed {grid_seed} ran: {reply['error']}", cells)
        return
    over = [cell for cell in reply["cells"] if cell["ratio"] > cell["bound"]]
    outcome.check(
        not over,
        f"sweep {grid_seed}: every online-approx ratio within the Theorem 2 "
        f"bound 1 + gamma|I| ({len(reply['cells'])} cells)",
        len(over),
    )
    if grid_seed != DEFAULT_SEED:
        return
    stored = json.loads(REFERENCE_TABLE.read_text())
    worst = 0.0
    for label, row in stored.items():
        for algorithm, values in row.items():
            got = reply["table"].get(label, {}).get(algorithm)
            if got is None:
                worst = float("inf")
                continue
            for value, ref in zip(got, values):
                worst = max(worst, stats.relative_gap(value, ref))
    outcome.check(
        worst <= TABLE_RTOL,
        f"sweep {grid_seed}: ratio table matches the stored table "
        f"(worst gap {worst:.2e}, rtol {TABLE_RTOL:g})",
        0 if worst <= TABLE_RTOL else cells,
    )


def _sweep_cells(reply: dict) -> int:
    return len(reply.get("cells", ())) or 18


def run_sweep(seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    outcome.note(
        "workload sweep-fig2: Figure 2, six hours x 3 repetitions, 24 users, "
        f"batched solves on {os.cpu_count()} worker(s)"
    )
    processes: list[Sweep] = []
    try:
        if trace:
            sweep = Sweep()
            processes.append(sweep)
            plain = sweep.sweep(DEFAULT_SEED, trace=False)
            traced = sweep.sweep(DEFAULT_SEED, trace=True)
            sweep.close()
            for reply in (plain, traced):
                _check_sweep(outcome, reply, DEFAULT_SEED, _sweep_cells(reply))
            outcome.metrics = _sweep_layers(plain, traced)
            return outcome
        gauges = [calibrate.gauge()]
        setups = []
        for _ in range(SETUP_REPEATS):
            if processes:
                processes[-1].close()
            processes.append(Sweep())
            setups.append(processes[-1].setup_s)
        gauges.append(calibrate.gauge())
        sweep = processes[-1]
        replies = []
        for index in range(max(MIN_PASSES, round(seconds / SWEEP_SECONDS))):
            grid_seed = _grid_seed(seed, index)
            reply = sweep.sweep(grid_seed, trace=False)
            gauges.append(calibrate.gauge())
            replies.append(reply)
            _check_sweep(outcome, reply, grid_seed, _sweep_cells(reply))
        bye = sweep.close()
    finally:
        for process in processes:
            process.kill()

    ratios = [cell["ratio"] for reply in replies for cell in reply.get("cells", ())]
    competitive = sum(ratios) / len(ratios) if ratios else float("nan")
    # The fastest sweep, since slow spells only add time; then every time
    # at reference speed (calibrate.py).
    factor = calibrate.scale(gauges)
    setup_s = stats.median(setups) * factor
    walls, slowest_cells = [], []
    for index, reply in enumerate(replies):
        if "error" in reply:
            continue
        slowest = max(wall for wall, _ in reply["cell_times"])
        walls.append(reply["wall_s"] * 1000.0 * factor)
        slowest_cells.append(slowest * 1000.0 * factor)
        outcome.note(
            f"sweep {index + 1} at seed {_grid_seed(seed, index)}: wall "
            f"{reply['wall_s']:.3f} s, slowest cell {slowest:.3f} s as measured"
        )
    outcome.note(_describe_gauges(gauges))
    best_wall = min(walls, default=float("nan"))
    best_slowest_cell = min(slowest_cells, default=float("nan"))
    outcome.note(f"as measured: setup {stats.median(setups):.4f} s")
    outcome.report("setup_s", setup_s, "s",
                   f" (median of {len(setups)} spawns, at reference speed)")
    outcome.report("sweep_wall_s", best_wall / 1000.0, "s",
                   f" (fastest of {len(walls)} sweeps, at reference speed)")
    outcome.report("slowest_cell_s", best_slowest_cell / 1000.0, "s",
                   f" (fastest of {len(walls)} sweeps, at reference speed)")
    outcome.report("competitive_ratio", competitive, "ratio",
                   f" (mean online-approx over {len(ratios)} cells)")
    outcome.report("failed_fraction", outcome.failed / outcome.attempted, "share")
    outcome.report("peak_rss_mb", bye["maxrss_kb"] / 1024.0, "MB",
                   " (sweep process + largest worker)")
    outcome.metrics = {
        "setup_s": setup_s,
        "latency_p50_ms": best_wall,
        "latency_tail_ms": best_slowest_cell,
        "cost_ratio": competitive,
        "peak_rss_mb": bye["maxrss_kb"] / 1024.0,
    }
    return outcome


def _sweep_layers(plain: dict, traced: dict) -> dict:
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    if "error" in traced or "error" in plain:
        return metrics
    counters = traced["counters"]
    get = counters.get
    cells = traced["cell_times"]
    walls = [wall * 1000.0 for wall, _ in cells]
    busiest: dict[int, float] = {}
    for wall, pid in cells:
        busiest[pid] = max(busiest.get(pid, 0.0), wall)
    workers = os.cpu_count() or 1
    calls = get("perfbench.batched.calls", 0.0)
    metrics.update(
        {
            "batched.solve_ms": get("perfbench.batched.ms", 0.0),
            "batched.calls": calls,
            "batched.lanes_per_call": (
                get("perfbench.batched.lanes", 0.0) / calls if calls else 0.0
            ),
            "batched.lane_iterations": get("perfbench.batched.lane_iterations", 0.0),
            "lp.solve_ms": get("perfbench.lp.ms", 0.0),
            "lp.solves": get("perfbench.lp.calls", 0.0),
            "ipm.solve_ms": get("perfbench.ipm.ms", 0.0),
            "ipm.solves": get("perfbench.ipm.calls", 0.0),
            "solver.fallbacks": get("solver.fallbacks", 0.0),
            "solver.circuit_opened": get("solver.circuit_breaker.opened", 0.0),
            "sweep.cell_p50_ms": stats.median(walls) if walls else 0.0,
            "sweep.cell_max_ms": max(walls, default=0.0),
            "sweep.worker_busy_share": (
                sum(busiest.values()) / (workers * traced["wall_s"])
            ),
            "trace.overhead_pct": 100.0
            * (traced["wall_s"] - plain["wall_s"])
            / plain["wall_s"],
        }
    )
    return metrics


# ----- entry point -----------------------------------------------------------


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _stamp(workload: str, seed: int) -> dict:
    from repro.telemetry import environment_fingerprint

    return {
        "workload": workload,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "commit": _git_commit(),
        "nproc": os.cpu_count(),
        "environment": environment_fingerprint(),
    }


def _write_reference() -> int:
    sweep = Sweep()
    try:
        reply = sweep.sweep(DEFAULT_SEED, trace=False)
        sweep.close()
    finally:
        sweep.kill()
    if "error" in reply:
        print(reply["error"], file=sys.stderr)
        return 1
    REFERENCE_TABLE.write_text(json.dumps(reply["table"], indent=1) + "\n")
    print(f"wrote {REFERENCE_TABLE.relative_to(ROOT)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-reference",
        action="store_true",
        help="record the Figure 2 ratio table at the default seed and exit",
    )
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.write_reference:
        return _write_reference()
    if args.workload is None:
        parser.error("--workload is required")

    out = OUT_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    out.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "sweep-fig2":
            outcome = run_sweep(args.seed, args.seconds, bool(args.trace))
        else:
            outcome = run_serve(
                args.workload, args.seed, args.seconds, bool(args.trace), out
            )
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out, ignore_errors=True)

    print("stamp " + json.dumps(_stamp(args.workload, args.seed)))
    for line in outcome.lines:
        print(line)
    units = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": outcome.failed == 0,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        "metrics": {
            name: {"value": float(outcome.metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
