"""Backend registry: look up convex backends by name, pick sensible defaults."""

from __future__ import annotations

import dataclasses
import logging

from ..telemetry import get_registry
from .base import ConvexBackend, ConvexProgram, SolverError, SolverResult
from .interior_point import InteriorPointBackend
from .scipy_backend import ScipyTrustConstrBackend

logger = logging.getLogger(__name__)

_BACKENDS: dict[str, ConvexBackend] = {}


def register_backend(name: str, backend: ConvexBackend) -> None:
    """Register (or replace) a backend under ``name``."""
    _BACKENDS[name] = backend


def get_backend(name: str) -> ConvexBackend:
    """Look up a backend by name; raises KeyError with the known names."""
    try:
        return _BACKENDS[name]
    except KeyError:
        known = ", ".join(sorted(_BACKENDS))
        raise KeyError(f"unknown backend {name!r}; known: {known}") from None


def available_backends() -> list[str]:
    """Sorted names of every registered backend."""
    return sorted(_BACKENDS)


class FallbackBackend:
    """Try a fast specialized backend, fall back to a robust one.

    The structured interior-point method requires programs carrying the P2
    structure and can (rarely) hit numerically hard subproblems; the
    SciPy backend is slower but general. This wrapper gives the best of
    both and is the project default.

    A **circuit breaker** guards against a persistently broken primary:
    after ``failure_threshold`` *consecutive* primary failures the wrapper
    stops trying the primary (solving on the secondary directly, without
    paying the doomed attempt) for the next ``cooldown`` solves, then
    half-opens and gives the primary another chance. Any primary success
    closes the circuit and resets the failure count. Circuit transitions
    are logged and counted (``solver.circuit_breaker.*``); every fallback
    still attaches the primary's error to the result.

    Attributes:
        primary: the fast backend tried first.
        secondary: the robust backend used on failure (and while open).
        failure_threshold: consecutive primary failures that open the
            circuit.
        cooldown: solves routed straight to the secondary while open.
    """

    def __init__(
        self,
        primary: ConvexBackend,
        secondary: ConvexBackend,
        *,
        failure_threshold: int = 3,
        cooldown: int = 25,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be at least 1")
        if cooldown < 1:
            raise ValueError("cooldown must be at least 1")
        self.primary = primary
        self.secondary = secondary
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self.name = f"{primary.name}+{secondary.name}"
        self._consecutive_failures = 0
        self._skips_remaining = 0

    @property
    def circuit_open(self) -> bool:
        """Whether the primary is currently being skipped."""
        return self._skips_remaining > 0

    def reset_circuit(self) -> None:
        """Close the circuit and forget past failures (e.g. between runs)."""
        self._consecutive_failures = 0
        self._skips_remaining = 0

    def reset_session(self) -> None:
        """Reset every piece of cross-solve state this wrapper holds.

        Service sessions (docs/SERVING.md) outlive any single ``run()``:
        one long-lived process serves many logical sessions against the
        same registered backend instance, so a circuit opened by one
        session must not leak a cold-start penalty into the next. Today
        the breaker is the only cross-solve state here, but callers
        should use this (not :meth:`reset_circuit`) at session
        boundaries so future caches are covered by the same contract.
        """
        self.reset_circuit()
        for backend in (self.primary, self.secondary):
            reset = getattr(backend, "reset_session", None)
            if reset is not None:
                reset()

    def solve(self, program: ConvexProgram, *, tol: float = 1e-8) -> SolverResult:
        """Try the primary backend; on SolverError, retry with the secondary.

        The primary's error is not discarded: it is logged and attached to
        the returned result as ``SolverResult.primary_error`` so callers
        can see *why* the slow path ran. While the circuit is open the
        primary is skipped entirely (``primary_error`` then records the
        skip, not a fresh attempt).
        """
        telemetry = get_registry()
        if self._skips_remaining > 0:
            self._skips_remaining -= 1
            if self._skips_remaining == 0:
                # Half-open: the next solve gives the primary a new chance
                # with a clean failure count.
                self._consecutive_failures = 0
            telemetry.counter("solver.circuit_breaker.skips").inc()
            result = self.secondary.solve(program, tol=tol)
            return dataclasses.replace(
                result,
                primary_error=f"{self.primary.name}: skipped (circuit open)",
            )
        try:
            result = self.primary.solve(program, tol=tol)
        except SolverError as exc:
            return self.absorb_primary_failure(program, tol=tol, error=exc)
        else:
            self._consecutive_failures = 0
            return result

    def absorb_primary_failure(
        self, program: ConvexProgram, *, tol: float, error: SolverError
    ) -> SolverResult:
        """Record a primary failure that happened elsewhere and fall back.

        The batched shard path (:mod:`repro.aggregate.sharding`) attempts
        the primary inside a stacked :func:`repro.solvers.batched.solve_batch`
        call rather than through :meth:`solve`; handing the failure to this
        method runs the exact failure bookkeeping of the sequential path —
        fallback counters and events, circuit-breaker accounting, the
        secondary solve, and ``primary_error`` on the result — without a
        doomed second primary attempt.
        """
        telemetry = get_registry()
        message = f"{self.primary.name}: {error}"
        logger.warning(
            "primary backend failed, falling back to %s (%s)",
            self.secondary.name,
            message,
        )
        self._consecutive_failures += 1
        telemetry.counter("solver.fallbacks").inc()
        if telemetry.enabled:
            telemetry.event(
                "solver.fallback", primary=self.primary.name, error=str(error)
            )
        if self._consecutive_failures >= self.failure_threshold:
            self._skips_remaining = self.cooldown
            telemetry.counter("solver.circuit_breaker.opened").inc()
            if telemetry.enabled:
                telemetry.event(
                    "solver.circuit_open",
                    primary=self.primary.name,
                    failures=self._consecutive_failures,
                    cooldown=self.cooldown,
                )
            logger.warning(
                "primary backend %s failed %d times in a row; skipping it "
                "for the next %d solves",
                self.primary.name,
                self._consecutive_failures,
                self.cooldown,
            )
        result = self.secondary.solve(program, tol=tol)
        return dataclasses.replace(result, primary_error=message)

    def absorb_primary_success(self, result: SolverResult) -> SolverResult:
        """Record a primary success that happened elsewhere (batched path)."""
        self._consecutive_failures = 0
        return result


register_backend("scipy", ScipyTrustConstrBackend())
register_backend("ipm", InteriorPointBackend())
register_backend("auto", FallbackBackend(InteriorPointBackend(), ScipyTrustConstrBackend()))


def default_backend() -> ConvexBackend:
    """The backend used when an algorithm is not given one explicitly."""
    return get_backend("auto")


def reset_session(backend: ConvexBackend | str) -> None:
    """Session-boundary reset for any backend (duck-typed, never raises).

    Accepts a backend instance or a registry name. Backends without
    cross-solve state are a no-op; wrappers with a ``reset_session`` (or
    legacy ``reset_circuit``) hook are cleared. The live service calls
    this when a client issues a session reset (docs/SERVING.md).
    """
    if isinstance(backend, str):
        backend = get_backend(backend)
    reset = getattr(backend, "reset_session", None)
    if reset is None:
        reset = getattr(backend, "reset_circuit", None)
    if reset is not None:
        reset()
