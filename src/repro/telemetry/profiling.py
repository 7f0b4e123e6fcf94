"""Continuous profiling: deterministic phase timers + a sampling profiler.

Two complementary instruments, both off by default and both observe-only
(they read clocks and stack frames, never touch computed values — costs
are bit-identical with profiling on or off):

* **Phase timers** — ``with phase("ipm.assemble"): ...`` around the named
  stages of the hot path. When no profile is active, :func:`phase`
  returns a shared no-op context manager (the NullRegistry trick), so
  instrumented code pays one module-global read per block and nothing
  else. When active, elapsed milliseconds accumulate per phase into the
  :class:`PhaseAccumulator` — per *thread* internally, so concurrent
  batched cells don't bleed into each other's per-slot attribution.
  The phase catalog lives in docs/OBSERVABILITY.md §12: ``ipm.assemble``,
  ``ipm.factorize_smw``, ``ipm.line_search``, ``ipm.convergence_check``
  for the interior-point solver; ``spine.account`` and
  ``spine.checkpoint`` for the slot body; ``spine.unattributed`` is the
  per-slot remainder (slot wall minus attributed phases) so the per-slot
  sums in ``prof.phases`` events always reconcile with ``slot.wall_ms``.

* **Sampling profiler** — a daemon thread polling
  ``sys._current_frames()`` at a configurable rate (default
  :data:`DEFAULT_HZ` = 19 Hz, deliberately co-prime with common periodic
  work so samples don't alias onto slot boundaries). Each observation
  folds into a ``"frame;frame;frame" -> count`` dict — the classic
  collapsed-stack form, which merges associatively across workers and
  runs by plain addition (:func:`merge_folded`).

Both emit ``prof.profile`` manifest events at session exit and export to
speedscope JSON (:func:`speedscope_document` / :func:`write_speedscope`)
or Brendan-Gregg collapsed text (:func:`write_collapsed`) via
``repro-edge profile RUN_CMD...`` and ``repro-edge export --speedscope``.
"""

from __future__ import annotations

import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Mapping, Sequence

from .metrics import get_registry

__all__ = [
    "DEFAULT_HZ",
    "PhaseAccumulator",
    "ProfileHandle",
    "SamplingProfiler",
    "active_profile",
    "merge_folded",
    "phase",
    "profiling_session",
    "speedscope_document",
    "write_collapsed",
    "write_speedscope",
]

#: Default sampling rate. 19 Hz keeps overhead ~zero while being co-prime
#: with 1/10/100 ms periodic work, so samples don't lock onto slot edges.
DEFAULT_HZ = 19.0

#: Stack depth cap per sample — enough for this codebase's call trees.
MAX_SAMPLE_FRAMES = 48


class PhaseAccumulator:
    """Per-thread phase wall-time totals, mergeable into one folded view.

    ``add``/``marker``/``since`` operate on the calling thread's private
    totals (no locking on the hot path, and a slot's delta window is not
    polluted by concurrent threads); :meth:`folded` merges every thread's
    totals by addition — the same merge-associative shape as sampled
    stacks, so downstream exporters treat both uniformly.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._per_thread: list[dict[str, float]] = []

    def _totals(self) -> dict[str, float]:
        totals = getattr(self._local, "totals", None)
        if totals is None:
            totals = {}
            self._local.totals = totals
            with self._lock:
                self._per_thread.append(totals)
        return totals

    def add(self, name: str, ms: float) -> None:
        """Credit ``ms`` milliseconds of wall time to ``name``."""
        totals = self._totals()
        totals[name] = totals.get(name, 0.0) + ms

    def marker(self) -> dict[str, float]:
        """Snapshot of this thread's totals (pair with :meth:`since`)."""
        return dict(self._totals())

    def since(self, marker: Mapping[str, float]) -> dict[str, float]:
        """Per-phase milliseconds this thread accumulated since ``marker``."""
        deltas: dict[str, float] = {}
        for name, value in self._totals().items():
            delta = value - marker.get(name, 0.0)
            if delta > 0.0:
                deltas[name] = delta
        return deltas

    def folded(self) -> dict[str, float]:
        """All threads' totals merged by addition (``{phase: ms}``)."""
        with self._lock:
            snapshots = list(self._per_thread)
        merged: dict[str, float] = {}
        for totals in snapshots:
            # A still-running thread may append a key mid-copy; retrying
            # is cheap and the session quiesces threads before reading.
            for _ in range(4):
                try:
                    items = list(totals.items())
                    break
                except RuntimeError:  # pragma: no cover - racing writer
                    continue
            else:  # pragma: no cover - persistent race
                items = []
            for name, value in items:
                merged[name] = merged.get(name, 0.0) + value
        return merged


def merge_folded(
    *profiles: Mapping[str, float],
) -> dict[str, float]:
    """Merge folded profiles by addition — associative and commutative."""
    merged: dict[str, float] = {}
    for folded in profiles:
        for stack, weight in folded.items():
            merged[stack] = merged.get(stack, 0.0) + weight
    return merged


# ----- active-profile plumbing ------------------------------------------------

_active_profile: PhaseAccumulator | None = None
_profile_lock = threading.Lock()


def active_profile() -> PhaseAccumulator | None:
    """The process-wide active accumulator, or ``None`` (profiling off)."""
    return _active_profile


class _NoopTimer:
    """Shared do-nothing context manager for the profiling-off path."""

    __slots__ = ()

    def __enter__(self) -> "_NoopTimer":
        return self

    def __exit__(self, *_exc: object) -> bool:
        return False


_NOOP_TIMER = _NoopTimer()


class _PhaseTimer:
    __slots__ = ("profile", "name", "start")

    def __init__(self, profile: PhaseAccumulator, name: str) -> None:
        self.profile = profile
        self.name = name

    def __enter__(self) -> "_PhaseTimer":
        self.start = time.perf_counter()
        return self

    def __exit__(self, *_exc: object) -> bool:
        self.profile.add(
            self.name, (time.perf_counter() - self.start) * 1000.0
        )
        return False


def phase(name: str) -> Any:
    """Time a named phase into the active profile; no-op when profiling is off.

    The off path returns a shared singleton — no allocation, no clock
    read — so leaving ``with phase(...)`` blocks in hot code is free.
    """
    profile = _active_profile
    if profile is None:
        return _NOOP_TIMER
    return _PhaseTimer(profile, name)


# ----- sampling profiler ------------------------------------------------------


def _frame_label(code: Any) -> str:
    """``module:function`` label for one frame, stable across machines."""
    return f"{Path(code.co_filename).stem}:{code.co_name}"


class SamplingProfiler:
    """Low-overhead wall-clock sampler over ``sys._current_frames()``.

    A daemon thread wakes every ``1/hz`` seconds, snapshots every *other*
    thread's Python stack, and folds each into
    ``"outer;...;inner" -> sample count``. Purely observational: it never
    touches the sampled threads, so results are unchanged — only a few
    microseconds of GIL time per tick are spent.
    """

    def __init__(
        self, hz: float = DEFAULT_HZ, *, max_frames: int = MAX_SAMPLE_FRAMES
    ) -> None:
        if hz <= 0:
            raise ValueError(f"sampling rate must be positive, got {hz}")
        self.hz = float(hz)
        self.max_frames = max_frames
        self.folded: dict[str, int] = {}
        self.samples = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def start(self) -> None:
        """Start the background sampling thread (idempotent)."""
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._run, name="repro-prof-sampler", daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        interval = 1.0 / self.hz
        while not self._stop.wait(interval):
            self.sample_once()

    def sample_once(self) -> None:
        """Take one sample of every other thread's stack (testable hook)."""
        own = threading.get_ident()
        for ident, frame in sys._current_frames().items():
            if ident == own:
                continue
            stack: list[str] = []
            depth = 0
            while frame is not None and depth < self.max_frames:
                stack.append(_frame_label(frame.f_code))
                frame = frame.f_back
                depth += 1
            if not stack:
                continue
            key = ";".join(reversed(stack))
            self.folded[key] = self.folded.get(key, 0) + 1
            self.samples += 1

    def stop(self) -> dict[str, int]:
        """Stop the sampler thread and return the folded sample counts."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        return dict(self.folded)


# ----- sessions ---------------------------------------------------------------


@dataclass
class ProfileHandle:
    """What a :func:`profiling_session` yields; results land at exit.

    ``phase_folded`` / ``sampler_folded`` are empty until the ``with``
    block closes (the sampler keeps running until then), after which they
    hold the merged ``{phase: ms}`` and ``{stack: samples}`` views — so a
    wrapper like ``repro-edge profile`` can export them even though the
    inner command's telemetry session is already gone.
    """

    hz: float
    phases: PhaseAccumulator
    sampler: SamplingProfiler | None
    phase_folded: dict[str, float] = field(default_factory=dict)
    sampler_folded: dict[str, int] = field(default_factory=dict)
    samples: int = 0


@contextmanager
def profiling_session(
    *, hz: float | None = DEFAULT_HZ, emit: bool = True
) -> Iterator[ProfileHandle]:
    """Activate phase timers (and the sampler unless ``hz`` is 0/None).

    At exit the handle is populated and — when ``emit`` is true and a
    telemetry registry is active — one ``prof.profile`` event per
    instrument is recorded, each carrying a merge-associative ``folded``
    mapping, so manifests from sharded runs aggregate by addition.
    """
    global _active_profile
    phases = PhaseAccumulator()
    sampler = SamplingProfiler(hz=hz) if hz else None
    handle = ProfileHandle(hz=hz or 0.0, phases=phases, sampler=sampler)
    with _profile_lock:
        previous = _active_profile
        _active_profile = phases
    if sampler is not None:
        sampler.start()
    try:
        yield handle
    finally:
        with _profile_lock:
            _active_profile = previous
        if sampler is not None:
            handle.sampler_folded = sampler.stop()
            handle.samples = sampler.samples
        handle.phase_folded = phases.folded()
        if emit:
            registry = get_registry()
            registry.event(
                "prof.profile",
                source="phases",
                unit="ms",
                folded=handle.phase_folded,
            )
            if sampler is not None:
                registry.event(
                    "prof.profile",
                    source="sampler",
                    unit="samples",
                    hz=handle.hz,
                    samples=handle.samples,
                    folded=handle.sampler_folded,
                )


# ----- export -----------------------------------------------------------------

_SPEEDSCOPE_SCHEMA = "https://www.speedscope.app/file-format-schema.json"

_UNIT_NAMES = {"ms": "milliseconds", "samples": "none"}


def speedscope_document(
    profiles: Sequence[Mapping[str, Any]],
) -> dict[str, Any]:
    """Build one speedscope file from folded profiles.

    Each input is ``{"name": str, "unit": "ms"|"samples", "folded":
    {stack: weight}}``; each becomes one ``"sampled"`` speedscope profile
    sharing a global frame table. Stacks iterate in sorted order so the
    document is deterministic for a given folded mapping.
    """
    frames: list[dict[str, str]] = []
    frame_index: dict[str, int] = {}
    rendered: list[dict[str, Any]] = []
    for profile in profiles:
        samples: list[list[int]] = []
        weights: list[float] = []
        for stack, weight in sorted(profile["folded"].items()):
            indices: list[int] = []
            for label in stack.split(";"):
                index = frame_index.get(label)
                if index is None:
                    index = len(frames)
                    frame_index[label] = index
                    frames.append({"name": label})
                indices.append(index)
            samples.append(indices)
            weights.append(weight)
        rendered.append(
            {
                "type": "sampled",
                "name": profile["name"],
                "unit": _UNIT_NAMES.get(profile.get("unit", "samples"), "none"),
                "startValue": 0,
                "endValue": sum(weights),
                "samples": samples,
                "weights": weights,
            }
        )
    return {
        "$schema": _SPEEDSCOPE_SCHEMA,
        "shared": {"frames": frames},
        "profiles": rendered,
        "name": "repro-edge profile",
        "exporter": "repro-edge",
    }


def write_speedscope(
    path: str | Path, profiles: Sequence[Mapping[str, Any]]
) -> Path:
    """Write :func:`speedscope_document` as JSON; returns the path."""
    import json

    path = Path(path)
    path.write_text(
        json.dumps(speedscope_document(profiles), indent=2) + "\n",
        encoding="utf-8",
    )
    return path


def write_collapsed(path: str | Path, folded: Mapping[str, float]) -> Path:
    """Write a folded profile as collapsed-stack text (``stack weight``).

    The flamegraph toolchain's native input; weights keep their unit
    (milliseconds for phase profiles, sample counts for the sampler).
    """
    path = Path(path)
    lines = [
        f"{stack} {weight:g}" for stack, weight in sorted(folded.items())
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path
