"""Trace-tree helpers for the span records produced by the registry.

A span is recorded as a plain dict — ``{"name", "duration_ms",
"children", "meta"?}`` — so trees pickle across process-pool workers and
serialize straight into the run manifest. This module provides the small
read-side toolkit: depth-first iteration and an indented text rendering
for quick inspection.
"""

from __future__ import annotations

from typing import Iterable, Iterator


def walk_spans(spans: Iterable[dict]) -> Iterator[tuple[int, dict]]:
    """Yield ``(depth, node)`` over span trees in depth-first order."""
    stack = [(0, node) for node in reversed(list(spans))]
    while stack:
        depth, node = stack.pop()
        yield depth, node
        for child in reversed(node.get("children", ())):
            stack.append((depth + 1, child))


def render_spans(spans: Iterable[dict], *, min_ms: float = 0.0) -> str:
    """Render span trees as an indented text outline.

    Args:
        spans: root span nodes (e.g. ``registry.spans`` or the manifest's
            ``spans`` record).
        min_ms: hide spans shorter than this many milliseconds (children of
            a hidden span are hidden with it).
    """
    lines = []
    skip_deeper_than: int | None = None
    for depth, node in walk_spans(spans):
        if skip_deeper_than is not None:
            if depth > skip_deeper_than:
                continue
            skip_deeper_than = None
        if float(node["duration_ms"]) < min_ms:
            skip_deeper_than = depth
            continue
        meta = node.get("meta")
        suffix = f"  {meta}" if meta else ""
        lines.append(
            f"{'  ' * depth}{node['name']}: {float(node['duration_ms']):.3f} ms"
            f"{suffix}"
        )
    return "\n".join(lines) if lines else "(no spans recorded)"
