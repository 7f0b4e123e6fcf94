"""Distributed trace contexts that flow through every execution boundary.

A :class:`TraceContext` is the (trace_id, span_id, parent_span_id) triple
familiar from W3C Trace Context / OpenTelemetry, shrunk to what this
system actually needs: stitch the per-process span forests that
``merge_snapshot`` produces back into **one causal tree per run or
request**. The propagation rules (docs/OBSERVABILITY.md §11):

* the CLI opens a **root context** (:func:`traced_root`) when
  ``--trace-context`` is passed — one trace per invocation;
* :class:`~repro.parallel.executor.SweepExecutor` mints one **child
  context per cell at the dispatch site** and ships it with the work item
  (a context is a tiny frozen dataclass of strings, so it rides the
  pickled pool call). The worker activates it for the duration of
  the cell, and at merge time the parent stamps the same ids onto the
  wrapped ``"cell"`` span root — both sides agree without shipping ids
  back through the result pipe;
* :class:`~repro.solvers.batched.BatchCoordinator` captures
  :func:`current_trace` at ``submit()`` so each lane's deferred telemetry
  (emitted later, possibly from another thread) carries its *originating*
  context, not the flusher's;
* the service protocol carries the context as an optional ``"trace"``
  field on ``update`` messages (:func:`TraceContext.to_wire` /
  :func:`TraceContext.from_wire`), and every ``slot_result`` echoes the
  request's ``trace_id`` — a client update → solve → reply round-trip is
  one connected trace even across the TCP boundary.

**Zero overhead / bit identity when off.** The active context lives in a
thread-local; with no context set, :func:`trace_span` delegates to the
plain ``registry.span`` call with unchanged metadata, so manifests are
byte-identical to a build without this module. Tracing never changes
computed results either way — contexts are carried, never consulted.

Span connectivity contract (consumed by
:func:`repro.telemetry.exporters.chrome_trace`): a span whose meta
carries ``span_id`` may be referenced as ``parent_span_id`` by spans in
*other* snapshots; children inside one tree need no explicit ids because
tree structure already links them.
"""

from __future__ import annotations

import threading
import uuid
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator, Mapping

from .metrics import get_registry

__all__ = [
    "TraceContext",
    "current_trace",
    "new_trace",
    "trace_scope",
    "trace_span",
    "traced_root",
]


def _new_id() -> str:
    """A fresh 64-bit hex span/trace id component."""
    return uuid.uuid4().hex[:16]


@dataclass(frozen=True)
class TraceContext:
    """One node's identity in a distributed trace.

    Attributes:
        trace_id: shared by every span of one run/request tree.
        span_id: this context's own id — children reference it.
        parent_span_id: the id of the context this one was forked from,
            or ``None`` for a trace root.
    """

    trace_id: str
    span_id: str
    parent_span_id: str | None = None

    def child(self) -> "TraceContext":
        """Fork a context for a sub-unit of work (cell, lane, request)."""
        return TraceContext(
            trace_id=self.trace_id,
            span_id=_new_id(),
            parent_span_id=self.span_id,
        )

    def as_meta(self) -> dict[str, str]:
        """Span-meta fields that make this span linkable across snapshots."""
        meta = {"trace_id": self.trace_id, "span_id": self.span_id}
        if self.parent_span_id is not None:
            meta["parent_span_id"] = self.parent_span_id
        return meta

    def to_wire(self) -> dict[str, str]:
        """JSON-safe form for protocol messages (``"trace"`` field)."""
        return self.as_meta()

    @classmethod
    def from_wire(cls, payload: Any) -> "TraceContext | None":
        """Parse a wire ``"trace"`` field; malformed shapes become ``None``.

        Lenient by design: tracing is observability, so a client sending a
        bad context degrades to an untraced request instead of an error.
        """
        if not isinstance(payload, Mapping):
            return None
        trace_id = payload.get("trace_id")
        span_id = payload.get("span_id")
        parent = payload.get("parent_span_id")
        if not isinstance(trace_id, str) or not isinstance(span_id, str):
            return None
        if parent is not None and not isinstance(parent, str):
            return None
        return cls(trace_id=trace_id, span_id=span_id, parent_span_id=parent)


def new_trace() -> TraceContext:
    """Mint a fresh root context (no parent)."""
    return TraceContext(trace_id=_new_id(), span_id=_new_id())


_active = threading.local()


def current_trace() -> TraceContext | None:
    """The context active on this thread, or ``None`` (tracing off)."""
    return getattr(_active, "context", None)


@contextmanager
def trace_scope(context: TraceContext | None) -> Iterator[TraceContext | None]:
    """Activate ``context`` on this thread for the duration of the block.

    ``None`` is accepted and deactivates tracing inside the block, which
    lets call sites pass an optional context through unconditionally.
    """
    previous = current_trace()
    _active.context = context
    try:
        yield context
    finally:
        _active.context = previous


@contextmanager
def trace_span(name: str, **meta: Any) -> Iterator[Any]:
    """A registry span that is trace-linked when a context is active.

    With no active context this is *exactly* ``registry.span(name,
    **meta)`` — same record, byte-identical manifests. With one, a child
    context is forked, its ids are stamped into the span meta, and it
    becomes the active context inside the block (so nested trace_spans
    and :func:`current_trace` captures chain correctly).
    """
    registry = get_registry()
    context = current_trace()
    if context is None:
        with registry.span(name, **meta) as node:
            yield node
        return
    child = context.child()
    with trace_scope(child):
        with registry.span(name, **{**meta, **child.as_meta()}) as node:
            yield node


@contextmanager
def traced_root(name: str, **meta: Any) -> Iterator[Any]:
    """Open a trace: a fresh root context plus its root span.

    The root span carries the context's ``span_id`` (and no parent), so
    every descendant minted inside the block resolves up to it. Used by
    the CLI's ``--trace-context`` flag around the whole command.
    """
    root = new_trace()
    registry = get_registry()
    with trace_scope(root):
        with registry.span(name, **{**meta, **root.as_meta()}) as node:
            yield node
