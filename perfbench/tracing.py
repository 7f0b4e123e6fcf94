"""Span and counter wrappers installed around the program's public calls.

The traced run replaces named public functions and methods with thin
wrappers that time each call. Nothing inside the program changes: the
wrappers are installed by the benchmark's own server and sweep processes
before any work starts.

* :class:`SpanRecorder` keeps one span per call (name, start, end, parent,
  slot) in memory; the server writes them out once, at exit. Parents are
  tracked per thread, because the server decodes lines on its event loop
  and solves slots on an executor thread.
* :func:`install_counters` is the cross-process variant for the sweep:
  pool workers run the cells, so each wrapped call adds its time and count
  to the active telemetry registry, whose per-cell snapshots the sweep
  already merges back into the parent process.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Any, Callable


def _replace(owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
    """Swap ``owner.attr`` for ``make(original)``, keeping its binding kind."""
    raw = owner.__dict__.get(attr) if hasattr(owner, "__dict__") else None
    original = getattr(owner, attr)
    wrapper = functools.wraps(original)(make(original))
    if isinstance(raw, (classmethod, staticmethod)):
        # ``original`` is already bound (or plain); expose the wrapper
        # without a second binding.
        wrapper = staticmethod(wrapper)
    setattr(owner, attr, wrapper)


class SpanRecorder:
    """In-memory span store shared by every wrapper of one process."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        *,
        slot_of: Callable[..., Any] | None = None,
        on_result: Callable[[dict, Any], None] | None = None,
    ) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``.

        ``slot_of(*args)`` names the slot a root span serves (children
        inherit their parent's slot); ``on_result(span, result)`` may add
        fields such as an iteration count to the span.
        """
        recorder = self

        def make(original: Callable) -> Callable:
            def wrapper(*args, **kwargs):
                stack = recorder._stack()
                parent = stack[-1] if stack else None
                if slot_of is not None:
                    slot = slot_of(*args)
                elif parent is not None:
                    slot = recorder.spans[parent]["slot"]
                else:
                    slot = None
                span = {
                    "name": name,
                    "start": time.monotonic(),
                    "end": 0.0,
                    "parent": parent,
                    "slot": slot,
                }
                with recorder._lock:
                    index = len(recorder.spans)
                    recorder.spans.append(span)
                stack.append(index)
                try:
                    result = original(*args, **kwargs)
                except Exception:
                    span["error"] = True
                    raise
                finally:
                    span["end"] = time.monotonic()
                    stack.pop()
                if on_result is not None:
                    on_result(span, result)
                return result

            return wrapper

        _replace(owner, attr, make)


def _solver_result(span: dict, result: Any) -> None:
    span["iterations"] = int(result.iterations)
    span["partial"] = bool(result.partial)


def _cohort_count(span: dict, result: Any) -> None:
    span["cohorts"] = int(result.num_cohorts)


def _update_slot(_session: Any, message: Any) -> Any:
    return message.get("slot") if isinstance(message, dict) else None


def install_slot_path(recorder: SpanRecorder) -> None:
    """Wrap every public call on the serving slot path.

    Call before the session is built: modules that imported a function by
    name are patched at that name, so their call sites see the wrapper.
    """
    from repro.aggregate import cohorts, controller
    from repro.core.regularization import OnlineRegularizedAllocator
    from repro.core.subproblem import RegularizedSubproblem
    from repro.service import server, session
    from repro.simulation.accounting import CostAccumulator
    from repro.simulation.controllers import RegularizedController
    from repro.simulation.spine import SlotStepper
    from repro.solvers.interior_point import InteriorPointBackend

    wrap = recorder.wrap
    wrap(server, "parse_message", "protocol.parse_message")
    wrap(session, "parse_update", "protocol.parse_update")
    wrap(session.AllocationSession, "handle", "session.handle", slot_of=_update_slot)
    wrap(session.AllocationSession, "step", "session.step")
    wrap(SlotStepper, "step", "spine.step")
    wrap(RegularizedController, "observe", "controller.observe")
    wrap(controller.AggregatedController, "observe", "controller.observe")
    wrap(CostAccumulator, "update", "accounting.update")
    wrap(OnlineRegularizedAllocator, "step", "regularization.step")
    wrap(RegularizedSubproblem, "from_instance", "subproblem.build")
    wrap(RegularizedSubproblem, "build_program", "subproblem.build")
    wrap(controller, "reduced_subproblem", "subproblem.build")
    wrap(controller, "build_cohorts", "aggregate.cohort", on_result=_cohort_count)
    wrap(cohorts.CohortMap, "aggregate", "aggregate.cohort")
    wrap(cohorts.CohortMap, "disaggregate", "aggregate.disaggregate")
    wrap(controller, "solve_sharded", "aggregate.shard_solve")
    wrap(InteriorPointBackend, "solve", "ipm.solve", on_result=_solver_result)


def _counting(name: str, observe: Callable[[Any, Any, tuple], None] | None = None):
    """A wrapper factory adding call time and count to the active registry."""

    def make(original: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            from repro.telemetry import get_registry

            start = time.perf_counter()
            result = original(*args, **kwargs)
            registry = get_registry()
            registry.counter(f"perfbench.{name}.ms").inc(
                (time.perf_counter() - start) * 1000.0
            )
            registry.counter(f"perfbench.{name}.calls").inc()
            if observe is not None:
                observe(registry, result, args)
            return result

        return wrapper

    return make


def _batch_lanes(registry: Any, outcomes: Any, args: tuple) -> None:
    registry.counter("perfbench.batched.lanes").inc(len(outcomes))
    registry.counter("perfbench.batched.lane_iterations").inc(
        sum(getattr(outcome, "iterations", 0) for outcome in outcomes)
    )


def install_counters() -> None:
    """Wrap the sweep's solver layers; counts land in the telemetry registry.

    Pool workers are forked after this runs, so they inherit the wrappers.
    """
    from repro.solvers import batched
    from repro.solvers.interior_point import InteriorPointBackend
    from repro.solvers.linear import LinearProgramBuilder

    _replace(batched, "solve_batch", _counting("batched", _batch_lanes))
    _replace(LinearProgramBuilder, "solve", _counting("lp"))
    _replace(InteriorPointBackend, "solve", _counting("ipm"))
