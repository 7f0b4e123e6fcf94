"""Incident flight recorder: replayable snapshots of the last K slots.

Alerting (:mod:`repro.telemetry.alerting`) tells you *that* a live
run went wrong; this module captures *what the solver actually saw* so
the offending slots can be re-run offline, deterministically. A
:class:`FlightRecorder` keeps a bounded ring of the last K slots' full
solve input state — the :class:`~repro.simulation.observations.SlotObservation`,
the controller state carried into the slot (x*_{t-1} and capacity
duals, via the spine's checkpoint machinery), the solver/aggregation
configuration and budget, the active trace ids, and an environment
fingerprint (:mod:`repro.telemetry.environment`). On any alert
— or an explicit :meth:`FlightRecorder.dump` — it writes an **incident
bundle**: a JSON-lines file in the ``repro.incident/1`` schema holding
the triggering alert, the K snapshots, and the surrounding event window.
One recorder serves the whole process: it sits next to the alert rules
on the active registry's sink chain
(:func:`~repro.telemetry.sinks.streaming_manifest_session`), so batch
runs and the serving session snapshot into it alike.

The loop closes with :func:`replay_bundle` (``repro-edge incident
replay``): each captured slot is rebuilt through a fresh
:class:`~repro.simulation.spine.SlotStepper` from its recorded pre-slot
state and the recorded costs, iteration count, and partial flag must
reproduce **bit-for-bit**. The one exception is named in every report:
aggregated bundles from releases that carried x*_{t-1} as a dense
(I, J) matrix replay with exact iterations and partial flags but costs
to ``DENSE_AGGREGATED_RTOL`` relative, since this release sums cohort
columns where those releases summed users. A budget-truncated solve
replays under an iteration cap equal to the recorded iteration count —
the interior-point method checks wall-clock and iteration budgets at the
same point between Newton iterations, so the deadline truncation is
reproduced exactly without a wall clock.

Everything here is observe-only: with no recorder attached the spine's
slot body does not change, and recorder-on runs compute bit-identical
costs (pinned by ``scripts/telemetry_overhead.py``).
"""

from __future__ import annotations

import json
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterator

import numpy as np

from .environment import environment_fingerprint
from .manifest import _jsonify
from .metrics import get_registry
from .sinks import EventSink
from .tracing import current_trace

#: Format tag written into every incident bundle (bump on breaking change).
INCIDENT_FORMAT = "repro.incident/1"

#: Default ring capacity: how many slots of solve input state are kept.
DEFAULT_CAPACITY = 8

#: Default bound on the surrounding-event context window kept in memory.
DEFAULT_CONTEXT_EVENTS = 128

#: Default cap on bundles one recorder writes (an alert storm must not
#: fill the disk; suppressed dumps are counted, not silently dropped).
DEFAULT_MAX_BUNDLES = 16

# ----- state serialization ----------------------------------------------------
#
# Controller/accumulator states are nested tuples of ndarrays, scalars,
# and None (see SlotStepper.checkpoint()). JSON cannot round-trip tuples
# or ndarrays natively, so both are tagged; python floats round-trip
# bit-exactly through json's repr-based printing, which is what makes
# replay a bit-for-bit contract rather than a tolerance check.

_ND_TAG = "__ndarray__"
_TUPLE_TAG = "__tuple__"
_BYTES_TAG = "__bytes__"


def encode_state(value):
    """Encode a checkpoint state into a JSON-able, bit-round-trippable form.

    Raises ``TypeError`` for values outside the supported vocabulary
    (ndarray, tuple, list, dict, scalars, ``None``) — the recorder turns
    that into a non-replayable snapshot instead of a corrupt one.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return {_ND_TAG: value.tolist(), "dtype": str(value.dtype)}
    if isinstance(value, bytes):  # only old bundles' states hold bytes
        return {_BYTES_TAG: value.hex()}
    if isinstance(value, tuple):
        return {_TUPLE_TAG: [encode_state(item) for item in value]}
    if isinstance(value, list):
        return [encode_state(item) for item in value]
    if isinstance(value, dict):
        return {str(key): encode_state(item) for key, item in value.items()}
    raise TypeError(
        f"cannot encode {type(value).__name__} into an incident snapshot"
    )


def decode_state(value):
    """Invert :func:`encode_state` (tags back to ndarrays and tuples)."""
    if isinstance(value, dict):
        if _ND_TAG in value:
            return np.asarray(value[_ND_TAG], dtype=value.get("dtype", "float64"))
        if _BYTES_TAG in value:
            return bytes.fromhex(value[_BYTES_TAG])
        if _TUPLE_TAG in value:
            return tuple(decode_state(item) for item in value[_TUPLE_TAG])
        return {key: decode_state(item) for key, item in value.items()}
    if isinstance(value, list):
        return [decode_state(item) for item in value]
    return value


def _encode_system(system) -> dict:
    """Serialize a SystemDescription so bundles are self-contained."""
    return {
        "workloads": encode_state(np.asarray(system.workloads)),
        "capacities": encode_state(np.asarray(system.capacities)),
        "reconfig_prices": encode_state(np.asarray(system.reconfig_prices)),
        "migration_out": encode_state(np.asarray(system.migration_prices.out)),
        "migration_in": encode_state(np.asarray(system.migration_prices.into)),
        "inter_cloud_delay": encode_state(np.asarray(system.inter_cloud_delay)),
        "weights": {
            "static": float(system.weights.static),
            "dynamic": float(system.weights.dynamic),
        },
    }


def _decode_system(payload: dict):
    from ..core.problem import CostWeights
    from ..pricing.bandwidth import MigrationPrices
    from ..simulation.observations import SystemDescription

    weights = payload.get("weights") or {}
    return SystemDescription(
        workloads=decode_state(payload["workloads"]),
        capacities=decode_state(payload["capacities"]),
        reconfig_prices=decode_state(payload["reconfig_prices"]),
        migration_prices=MigrationPrices(
            out=decode_state(payload["migration_out"]),
            into=decode_state(payload["migration_in"]),
        ),
        inter_cloud_delay=decode_state(payload["inter_cloud_delay"]),
        weights=CostWeights(
            static=float(weights.get("static", 1.0)),
            dynamic=float(weights.get("dynamic", 1.0)),
        ),
    )


def _describe_controller(controller) -> dict:
    """The replay-relevant configuration of a spine controller.

    Controllers without an ``algorithm`` (baseline adapters, schedule
    replays) are recorded by name but marked non-replayable — the bundle
    still documents what ran, replay just refuses those snapshots.
    """
    algorithm = getattr(controller, "algorithm", None)
    if algorithm is None or not hasattr(algorithm, "eps1"):
        return {"kind": type(controller).__name__, "replayable": False}
    budget = getattr(algorithm, "budget", None)
    info = {
        "kind": "regularized",
        "replayable": True,
        "eps1": float(algorithm.eps1),
        "eps2": float(algorithm.eps2),
        "tol": float(algorithm.tol),
        "backend": str(getattr(algorithm.backend, "name", "")),
        "budget": None
        if budget is None
        else {
            "deadline_s": budget.deadline_s,
            "max_iterations": budget.max_iterations,
        },
        "aggregation": None,
    }
    config = getattr(controller, "config", None)
    if config is not None and hasattr(config, "lambda_buckets"):
        info["kind"] = "aggregated"
        info["aggregation"] = {
            "lambda_buckets": config.lambda_buckets,
            "shards": int(config.shards),
        }
    return info


def _solver_stats(controller) -> tuple[int, bool]:
    """(iterations, partial) of the slot the controller just solved."""
    reports = getattr(controller, "last_reports", None)
    if reports:
        last = reports[-1]
        return int(last.iterations), bool(last.partial_solves > 0)
    last = getattr(controller, "last_result", None)
    if last is not None:
        return int(last.iterations), bool(last.partial)
    return 0, False


# ----- the recorder -----------------------------------------------------------


@dataclass(frozen=True)
class SlotSnapshot:
    """One slot's full solve input state plus its recorded outcome.

    Attributes:
        slot: the observed slot index.
        observation: the slot's observation (arrays copied at capture).
        checkpoint: the spine checkpoint taken *before* the solve — the
            controller state (x*_{t-1}, capacity duals), accumulator state,
            and residual maxima that make the slot reproducible.
        costs: the four paper costs plus the weighted total the slot paid.
        iterations: solver Newton iterations the slot's solve performed.
        partial: whether the solve was budget-truncated.
        wall_ms: wall time of the slot body (informational; not replayed).
        trace_id, span_id: the active distributed-trace context, if any.
    """

    slot: int
    observation: object
    checkpoint: object
    costs: dict
    iterations: int
    partial: bool
    wall_ms: float
    trace_id: str | None = None
    span_id: str | None = None


class FlightRecorder:
    """Bounded ring of replayable slot snapshots, dumped on alerts.

    :func:`~repro.telemetry.sinks.streaming_manifest_session` (what
    ``repro-edge --flight`` uses for every command, ``serve`` included)
    installs one process-wide via :func:`flight_session`, so every
    :class:`~repro.simulation.spine.SlotStepper` step snapshots into it,
    and tees the live event stream into it via :class:`FlightRecorderSink`,
    so ``alert`` records trigger automatic bundle dumps into
    ``incident_dir``.

    Attributes:
        capacity: K — the ring size (oldest snapshots evicted beyond it).
        snapshots: the retained :class:`SlotSnapshot` ring, oldest first.
        snapshots_taken: snapshots ever captured (including evicted ones).
        bundles_written: paths of every incident bundle written.
        dumps_suppressed: auto-dumps skipped by the per-rule cooldown or
            the ``max_bundles`` cap.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        *,
        incident_dir: str | Path | None = None,
        context_events: int = DEFAULT_CONTEXT_EVENTS,
        max_bundles: int = DEFAULT_MAX_BUNDLES,
    ) -> None:
        """Create a recorder keeping the last ``capacity`` slots."""
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.incident_dir = None if incident_dir is None else Path(incident_dir)
        self.max_bundles = int(max_bundles)
        self.snapshots: deque[SlotSnapshot] = deque(maxlen=self.capacity)
        self.snapshots_taken = 0
        self.bundles_written: list[Path] = []
        self.dumps_suppressed = 0
        self._context: deque[dict] = deque(maxlen=max(1, context_events))
        self._system = None
        self._controller_info: dict | None = None
        self._pending: tuple[object, object, object] | None = None
        self._last_dump_at: dict[str, int] = {}

    # ----- spine wiring -------------------------------------------------------

    def begin_slot(self, stepper, observation) -> None:
        """Capture the pre-solve state (called by ``SlotStepper.step``).

        The active trace context is captured here too: ``end_slot`` runs
        in the slot's deferred phase, possibly on another thread.
        """
        if self._system is None:
            self._system = stepper.system
            self._controller_info = _describe_controller(stepper.controller)
        self._pending = (observation, stepper.checkpoint(), current_trace())

    def end_slot(self, stepper, observation, costs, wall_ms: float) -> None:
        """Seal the pending snapshot with the slot's recorded outcome.

        Called by ``SlotStepper.settle``: the controller's last report (or
        result) is still the slot's, since the next ``observe`` runs only
        after the slot settles.
        """
        if self._pending is None:
            return
        pending_observation, checkpoint, trace = self._pending
        self._pending = None
        if pending_observation is not observation:
            return  # interleaved steppers; keep only matched pairs
        iterations, partial = _solver_stats(stepper.controller)
        self.snapshots.append(
            SlotSnapshot(
                slot=int(observation.slot),
                observation=observation,
                checkpoint=checkpoint,
                costs={
                    "operation": costs.operation,
                    "service_quality": costs.service_quality,
                    "reconfiguration": costs.reconfiguration,
                    "migration": costs.migration,
                    "total": costs.total,
                },
                iterations=iterations,
                partial=partial,
                wall_ms=float(wall_ms),
                trace_id=None if trace is None else trace.trace_id,
                span_id=None if trace is None else trace.span_id,
            )
        )
        self.snapshots_taken += 1
        get_registry().counter("flight.snapshots").inc()

    # ----- event stream wiring ------------------------------------------------

    def observe_event(self, record: dict) -> None:
        """Fold one event into the context window; auto-dump on alerts."""
        self._context.append(record)
        if record.get("type") != "alert":
            return
        rule = str(record.get("rule", "?"))
        if not self.snapshots or self.incident_dir is None:
            return
        last = self._last_dump_at.get(rule)
        if last is not None and self.snapshots_taken - last < self.capacity:
            self.dumps_suppressed += 1
            return
        if len(self.bundles_written) >= self.max_bundles:
            self.dumps_suppressed += 1
            return
        self._last_dump_at[rule] = self.snapshots_taken
        self.dump(alert=record, reason=f"alert:{rule}")

    @property
    def active_trace_ids(self) -> list[str]:
        """Distinct trace ids across the retained snapshots, oldest first."""
        seen: list[str] = []
        for snapshot in self.snapshots:
            if snapshot.trace_id is not None and snapshot.trace_id not in seen:
                seen.append(snapshot.trace_id)
        return seen

    # ----- bundle writing -----------------------------------------------------

    def _snapshot_record(self, snapshot: SlotSnapshot) -> dict:
        observation = snapshot.observation
        checkpoint = snapshot.checkpoint
        record: dict = {
            "type": "snapshot",
            "slot": snapshot.slot,
            "recorded": {
                "costs": snapshot.costs,
                "iterations": snapshot.iterations,
                "partial": snapshot.partial,
                "wall_ms": snapshot.wall_ms,
            },
            "replayable": True,
        }
        if snapshot.trace_id is not None:
            record["trace"] = {
                "trace_id": snapshot.trace_id,
                "span_id": snapshot.span_id,
            }
        try:
            record["observation"] = {
                "slot": int(observation.slot),
                "op_prices": encode_state(np.asarray(observation.op_prices)),
                "attachment": encode_state(np.asarray(observation.attachment)),
                "access_delay": encode_state(
                    np.asarray(observation.access_delay)
                ),
            }
            accumulator = checkpoint.accumulator_state
            record["next_slot"] = int(checkpoint.next_slot)
            record["residuals"] = [float(r) for r in checkpoint.residuals]
            record["controller_state"] = encode_state(
                checkpoint.controller_state
            )
            record["accumulator_state"] = {
                "operation": list(accumulator.operation),
                "service_quality": list(accumulator.service_quality),
                "reconfiguration": list(accumulator.reconfiguration),
                "migration": list(accumulator.migration),
                "x_prev": encode_state(accumulator.x_prev),
            }
        except (AttributeError, TypeError) as error:
            # Unknown observation/state vocabulary: the snapshot still
            # documents the slot, it just cannot seed a replay.
            record["replayable"] = False
            record["replay_error"] = str(error)
        return record

    def dump(
        self,
        path: str | Path | None = None,
        *,
        alert: dict | None = None,
        reason: str = "manual",
    ) -> Path | None:
        """Write the current ring as an incident bundle; return its path.

        Args:
            path: explicit bundle path; defaults to a sequenced file in
                ``incident_dir`` (``None`` with no dir configured either
                — then nothing is written and ``None`` is returned).
            alert: the triggering ``alert`` event record, if any.
            reason: why the bundle was written (``alert:<rule>``,
                ``manual``, ...).
        """
        if not self.snapshots:
            return None
        if path is None:
            if self.incident_dir is None:
                return None
            self.incident_dir.mkdir(parents=True, exist_ok=True)
            rule = "manual" if alert is None else str(alert.get("rule", "alert"))
            stem = rule.replace("/", "-").replace(":", "-")
            path = (
                self.incident_dir
                / f"incident-{len(self.bundles_written):03d}-{stem}.jsonl"
            )
        path = Path(path)
        header = {
            "type": "incident_start",
            "format": INCIDENT_FORMAT,
            "created_unix": time.time(),
            "reason": reason,
            "alert": alert,
            "capacity": self.capacity,
            "environment": environment_fingerprint(),
            "controller": self._controller_info
            or {"kind": "unknown", "replayable": False},
            "system": None if self._system is None else _encode_system(self._system),
        }
        snapshots = [self._snapshot_record(s) for s in self.snapshots]
        context = {
            "type": "context",
            "events": list(self._context),
            "trace_ids": self.active_trace_ids,
        }
        with path.open("w", encoding="utf-8") as handle:
            for record in (
                header,
                *snapshots,
                context,
                {"type": "incident_end", "snapshots": len(snapshots)},
            ):
                handle.write(json.dumps(record, default=_jsonify) + "\n")
        self.bundles_written.append(path)
        registry = get_registry()
        registry.counter("flight.bundles").inc()
        if registry.enabled:
            registry.event(
                "incident.written",
                path=str(path),
                reason=reason,
                snapshots=len(snapshots),
                rule=None if alert is None else alert.get("rule"),
            )
        return path


class FlightRecorderSink(EventSink):
    """Wrap a sink so the recorder sees the live event stream.

    Records pass through to ``inner`` untouched; the recorder keeps its
    context window and auto-dumps on ``alert`` records. Place it
    *outermost* in a sink chain (closest to the registry) so alerts the
    inner :class:`~repro.telemetry.alerting.AlertSink` re-emits
    through the registry are seen too.
    """

    def __init__(self, inner: EventSink, recorder: FlightRecorder) -> None:
        """Wrap ``inner``; every record is also fed to ``recorder``."""
        self.inner = inner
        self.recorder = recorder

    def emit(self, record: dict) -> None:
        """Forward the record, then let the recorder observe it."""
        self.inner.emit(record)
        self.recorder.observe_event(record)

    def flush(self) -> None:
        """Delegate to the inner sink."""
        self.inner.flush()

    def maybe_flush(self) -> None:
        """Delegate to the inner sink."""
        self.inner.maybe_flush()

    def close(self) -> None:
        """Delegate to the inner sink."""
        self.inner.close()


# ----- process-wide recorder --------------------------------------------------

_ACTIVE_RECORDER: FlightRecorder | None = None


def active_recorder() -> FlightRecorder | None:
    """The process-wide recorder the spine snapshots into (``None`` = off)."""
    return _ACTIVE_RECORDER


@contextmanager
def flight_session(recorder: FlightRecorder | None) -> Iterator[FlightRecorder | None]:
    """Install ``recorder`` as the process-wide one for the ``with`` block.

    Every :class:`~repro.simulation.spine.SlotStepper` step inside the
    block snapshots into it. ``None`` disables recording for the block —
    :func:`replay_bundle` and the loadgen batch reference use that so
    their slots never enter the ring.
    """
    global _ACTIVE_RECORDER
    previous = _ACTIVE_RECORDER
    _ACTIVE_RECORDER = recorder
    try:
        yield recorder
    finally:
        _ACTIVE_RECORDER = previous


# ----- bundle reading ---------------------------------------------------------


@dataclass(frozen=True)
class IncidentBundle:
    """A loaded incident bundle.

    Attributes:
        path: the file it came from.
        created_unix: bundle creation time.
        reason: why it was dumped (``alert:<rule>`` or ``manual``).
        alert: the triggering alert event record, if any.
        environment: the recording process's environment fingerprint.
        controller: the replay-relevant controller configuration.
        system: the encoded system description (``None`` if unrecorded).
        snapshots: the ``snapshot`` records, oldest first (raw dicts;
            :func:`replay_bundle` decodes them).
        context: the surrounding event window and active trace ids.
        truncated: the file ended before a consistent ``incident_end``
            (only ever ``True`` for non-strict loads).
    """

    path: Path
    created_unix: float = 0.0
    reason: str = ""
    alert: dict | None = None
    environment: dict | None = None
    controller: dict | None = None
    system: dict | None = None
    snapshots: tuple = ()
    context: dict | None = None
    truncated: bool = False


def read_bundle(path: str | Path, *, strict: bool = True) -> IncidentBundle:
    """Load an incident bundle written by :meth:`FlightRecorder.dump`.

    Raises ``ValueError`` on an unknown format tag or a torn/truncated
    file (missing or inconsistent ``incident_end``). With
    ``strict=False`` truncation is tolerated: the torn tail is dropped,
    every complete record before it is kept, and the returned bundle
    carries ``truncated=True``. :func:`replay_bundle` refuses truncated
    bundles — salvage is for inspection, not for bit-identity claims.
    """
    path = Path(path)
    header: dict = {}
    snapshots: list[dict] = []
    context: dict | None = None
    ended = False
    with path.open("r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                if strict:
                    raise ValueError(
                        f"{path}: unparseable bundle line {line_number}"
                    ) from None
                break  # torn tail of an interrupted write
            kind = record.get("type")
            if kind == "incident_start":
                if record.get("format") != INCIDENT_FORMAT:
                    raise ValueError(
                        f"{path}: unknown incident format "
                        f"{record.get('format')!r}"
                    )
                header = record
            elif kind == "snapshot":
                snapshots.append(record)
            elif kind == "context":
                context = record
            elif kind == "incident_end":
                ended = True
                if int(record.get("snapshots", -1)) != len(snapshots):
                    raise ValueError(
                        f"{path}: incident_end reports "
                        f"{record.get('snapshots')} snapshots, file holds "
                        f"{len(snapshots)} (line {line_number})"
                    )
    if not header:
        raise ValueError(f"{path}: not an incident bundle (no incident_start)")
    if not ended and strict:
        raise ValueError(f"{path}: truncated bundle (no incident_end record)")
    return IncidentBundle(
        path=path,
        created_unix=float(header.get("created_unix", 0.0)),
        reason=str(header.get("reason", "")),
        alert=header.get("alert"),
        environment=header.get("environment"),
        controller=header.get("controller"),
        system=header.get("system"),
        snapshots=tuple(snapshots),
        context=context,
        truncated=not ended,
    )


# ----- replay -----------------------------------------------------------------


@dataclass(frozen=True)
class ReplayDiff:
    """One field of one replayed slot that failed to reproduce."""

    slot: int
    field: str
    recorded: object
    replayed: object

    def render(self) -> str:
        """``slot N: field recorded X != replayed Y``."""
        return (
            f"slot {self.slot}: {self.field} recorded {self.recorded!r} "
            f"!= replayed {self.replayed!r}"
        )


#: The replay contract of per-user bundles and of every bundle this
#: release writes.
BIT_FOR_BIT = "bit-for-bit"

#: Cost tolerance for aggregated bundles whose x*_{t-1} is a dense (I, J)
#: matrix (every release before factored allocations). Their replay folds
#: the same per-user state into the same reduced solve, so iterations and
#: partial flags are exact; the operation, service-quality and
#: reconfiguration costs now sum cohort columns instead of users.
DENSE_AGGREGATED_RTOL = 1e-12


@dataclass(frozen=True)
class ReplayReport:
    """Outcome of :func:`replay_bundle` over every captured slot.

    Attributes:
        slots: snapshots replayed.
        diffs: every per-field divergence from the contract (empty = the
            bundle reproduced).
        contract: what "reproduced" meant for this bundle —
            :data:`BIT_FOR_BIT`, or the cost tolerance of a dense-layout
            aggregated bundle.
    """

    slots: int
    diffs: tuple[ReplayDiff, ...] = ()
    contract: str = BIT_FOR_BIT

    @property
    def ok(self) -> bool:
        """Whether every recorded field reproduced under the contract."""
        return not self.diffs

    def render(self) -> str:
        """Human-readable per-slot verdict plus the per-field diff."""
        verdict = (
            f"REPRODUCED {self.contract}"
            if self.ok
            else f"DIVERGED in {len(self.diffs)} field(s) ({self.contract})"
        )
        lines = [f"Replay of {self.slots} snapshot(s): {verdict}"]
        for diff in self.diffs:
            lines.append("  " + diff.render())
        return "\n".join(lines)


#: Recorded cost fields compared against the replay.
_COST_FIELDS = (
    "operation",
    "service_quality",
    "reconfiguration",
    "migration",
    "total",
)


def _dense_aggregated(controller_info: dict, snapshot: dict) -> bool:
    """Whether an aggregated snapshot carries x*_{t-1} in the dense layout."""
    if controller_info.get("kind") != "aggregated":
        return False
    x_prev = snapshot["controller_state"][_TUPLE_TAG][0]
    return _ND_TAG in x_prev


def _replay_budget(controller_info: dict, snapshot: dict):
    """The deterministic budget a snapshot replays under.

    A partial per-user solve replays with ``max_iterations`` equal to
    the recorded iteration count — the IPM checks both limits at the
    same point between Newton iterations, so a wall-clock truncation is
    reproduced exactly, and an unconverged solve (which keeps the iterate
    it stopped at) stops at the same iterate. Non-partial solves replay
    with the recorded iteration cap (if the budget had one) or
    unbudgeted, and so do partial aggregated solves without a deadline;
    a wall-clock-truncated *aggregated* solve has no recorded per-shard
    iteration counts and cannot be replayed deterministically.
    """
    from ..solvers.base import SolveBudget

    recorded = snapshot.get("recorded", {})
    budget = controller_info.get("budget") or {}
    if recorded.get("partial"):
        if controller_info.get("kind") == "aggregated":
            if budget.get("max_iterations"):
                return SolveBudget(max_iterations=budget["max_iterations"])
            if budget.get("deadline_s") is not None:
                raise ValueError(
                    "cannot deterministically replay a wall-clock-truncated "
                    "aggregated solve (no per-shard iteration counts "
                    "recorded); re-record with max_iterations for "
                    "replayable truncation"
                )
            # Unbudgeted: the partial shards stopped unconverged, which a
            # plain re-solve reproduces.
            return None
        # max_iterations=0 is meaningful: the deadline fired before the
        # first Newton iteration, and the cap reproduces exactly that.
        return SolveBudget(max_iterations=int(recorded["iterations"]))
    if budget.get("max_iterations"):
        return SolveBudget(max_iterations=int(budget["max_iterations"]))
    return None


#: Aggregation keys older bundles record that no longer exist; replay drops
#: them. None changed an unbudgeted or iteration-capped solve, except a
#: ``shard_slicing`` other than ``"price"``, which replay refuses.
_RETIRED_AGGREGATION_KEYS = (
    "warm_cohorts",
    "backend",
    "batch_solves",
    "workers",
    "shard_slicing",
)

#: Backend names a bundle may record for P2 solves the structured IPM
#: replays: this release writes the solver's own name; earlier releases
#: wrote a registry name (``auto`` was the IPM with a SciPy fallback that
#: only ran when the IPM raised) or the fallback chain's display name.
_IPM_BACKENDS = (
    "structured-ipm",
    "ipm",
    "auto",
    "structured-ipm+scipy-trust-constr",
)

#: Backend names of the retired SciPy trust-constr solver.
_RETIRED_BACKENDS = ("scipy", "scipy-trust-constr")


def _check_backend(name: str) -> None:
    """``ValueError`` unless the structured IPM replays ``name``'s solves."""
    if name in _RETIRED_BACKENDS:
        raise ValueError(
            f"bundle records backend {name!r}: the SciPy trust-constr "
            "solver was retired, and replay solves P2 with the structured "
            "IPM only"
        )
    if name not in _IPM_BACKENDS:
        raise ValueError(
            f"bundle records backend {name!r}, which replay cannot "
            f"reproduce; known: {', '.join(_IPM_BACKENDS)}"
        )


def _aggregation_config(recorded: dict):
    """The bundle's ``AggregationConfig``; ``ValueError`` names unknown keys."""
    from ..aggregate.config import AggregationConfig

    slicing = recorded.get("shard_slicing", "price")
    if slicing != "price":
        raise ValueError(
            f"bundle records shard_slicing {slicing!r}: that slicing was "
            "retired, and replay cuts shard capacity slices by price only"
        )
    settings = {
        k: v for k, v in recorded.items() if k not in _RETIRED_AGGREGATION_KEYS
    }
    unknown = sorted(set(settings) - {f.name for f in fields(AggregationConfig)})
    if unknown:
        raise ValueError(f"bundle records unknown aggregation keys: {unknown}")
    return AggregationConfig(**settings)


def _replay_snapshot(system, controller_info: dict, snapshot: dict) -> dict:
    """Re-run one snapshot; returns the replayed (costs, iterations, partial)."""
    from ..core.regularization import OnlineRegularizedAllocator
    from ..simulation.accounting import AccumulatorState
    from ..simulation.observations import SlotObservation
    from ..simulation.spine import SimulationCheckpoint, SlotStepper

    _check_backend(str(controller_info.get("backend", "auto")))
    aggregation = controller_info.get("aggregation")
    if aggregation is not None:
        _check_backend(str(aggregation.get("backend", "auto")))
    allocator = OnlineRegularizedAllocator(
        eps1=float(controller_info["eps1"]),
        eps2=float(controller_info["eps2"]),
        tol=float(controller_info["tol"]),
        aggregation=None if aggregation is None else _aggregation_config(aggregation),
        budget=_replay_budget(controller_info, snapshot),
    )
    accumulator = snapshot["accumulator_state"]
    checkpoint = SimulationCheckpoint(
        next_slot=int(snapshot["next_slot"]),
        controller_state=decode_state(snapshot["controller_state"]),
        accumulator_state=AccumulatorState(
            operation=tuple(float(v) for v in accumulator["operation"]),
            service_quality=tuple(
                float(v) for v in accumulator["service_quality"]
            ),
            reconfiguration=tuple(
                float(v) for v in accumulator["reconfiguration"]
            ),
            migration=tuple(float(v) for v in accumulator["migration"]),
            x_prev=decode_state(accumulator["x_prev"]),
        ),
        residuals=tuple(float(r) for r in snapshot["residuals"]),
    )
    payload = snapshot["observation"]
    observation = SlotObservation(
        slot=int(payload["slot"]),
        op_prices=decode_state(payload["op_prices"]),
        attachment=decode_state(payload["attachment"]),
        access_delay=decode_state(payload["access_delay"]),
    )
    controller = allocator.as_controller(system)
    stepper = SlotStepper(
        controller, system, keep_schedule=False, resume_from=checkpoint
    )
    _, costs = stepper.step(observation)
    stepper.settle()
    iterations, partial = _solver_stats(controller)
    return {
        "costs": {
            "operation": costs.operation,
            "service_quality": costs.service_quality,
            "reconfiguration": costs.reconfiguration,
            "migration": costs.migration,
            "total": costs.total,
        },
        "iterations": iterations,
        "partial": partial,
    }


def replay_bundle(bundle: IncidentBundle | str | Path) -> ReplayReport:
    """Re-run every captured slot; verify the recorded outcome reproduces.

    Each snapshot independently seeds a fresh controller and
    :class:`~repro.simulation.spine.SlotStepper` from its recorded
    pre-slot checkpoint, steps the recorded observation, and compares
    the slot's five cost components, solver iteration count, and partial
    flag. The contract is exact equality (floats round-trip bit-exactly
    through the bundle's JSON), except for aggregated bundles that carry
    x*_{t-1} densely, whose costs must match to
    :data:`DENSE_AGGREGATED_RTOL` relative. Returns a
    :class:`ReplayReport` naming the contract applied, whose ``diffs``
    name every field that failed it.

    Raises ``ValueError`` for truncated (salvaged) bundles, bundles with
    no recorded system, and non-replayable controllers or snapshots —
    replay refuses to make a claim it cannot check.
    """
    if not isinstance(bundle, IncidentBundle):
        bundle = read_bundle(bundle, strict=True)
    if bundle.truncated:
        raise ValueError(
            f"{bundle.path}: refusing to replay a truncated bundle — the "
            "tail was torn off mid-write, so the replay contract cannot be "
            "checked (read_bundle(strict=False) salvages it for inspection)"
        )
    if bundle.system is None:
        raise ValueError(f"{bundle.path}: bundle recorded no system description")
    controller_info = bundle.controller or {}
    if not controller_info.get("replayable", False):
        raise ValueError(
            f"{bundle.path}: controller "
            f"{controller_info.get('kind', 'unknown')!r} is not replayable"
        )
    if not bundle.snapshots:
        raise ValueError(f"{bundle.path}: bundle holds no snapshots")
    system = _decode_system(bundle.system)
    diffs: list[ReplayDiff] = []
    contract = BIT_FOR_BIT
    with flight_session(None):  # replays never re-record
        for snapshot in bundle.snapshots:
            slot = int(snapshot.get("slot", -1))
            if not snapshot.get("replayable", False):
                raise ValueError(
                    f"{bundle.path}: snapshot for slot {slot} is not "
                    f"replayable: {snapshot.get('replay_error', 'unknown state')}"
                )
            rtol = 0.0
            if _dense_aggregated(controller_info, snapshot):
                rtol = DENSE_AGGREGATED_RTOL
                contract = (
                    f"costs to {rtol:g} relative, iterations and partial "
                    "exact (dense-layout aggregated bundle)"
                )
            recorded = snapshot["recorded"]
            replayed = _replay_snapshot(system, controller_info, snapshot)
            for name in _COST_FIELDS:
                want = float(recorded["costs"][name])
                got = float(replayed["costs"][name])
                if abs(want - got) > rtol * abs(want):
                    diffs.append(
                        ReplayDiff(slot, f"costs.{name}", want, got)
                    )
            if int(recorded["iterations"]) != int(replayed["iterations"]):
                diffs.append(
                    ReplayDiff(
                        slot,
                        "iterations",
                        int(recorded["iterations"]),
                        int(replayed["iterations"]),
                    )
                )
            if bool(recorded["partial"]) != bool(replayed["partial"]):
                diffs.append(
                    ReplayDiff(
                        slot,
                        "partial",
                        bool(recorded["partial"]),
                        bool(replayed["partial"]),
                    )
                )
    return ReplayReport(
        slots=len(bundle.snapshots), diffs=tuple(diffs), contract=contract
    )
