"""Tests for span recording and the trace-tree read-side helpers."""

from __future__ import annotations

from repro.telemetry import (
    MetricsRegistry,
    render_spans,
    span,
    telemetry_session,
    walk_spans,
)


def _tree() -> list[dict]:
    """Two roots; the first has a child with its own child."""
    return [
        {
            "name": "run",
            "duration_ms": 10.0,
            "children": [
                {
                    "name": "simulate",
                    "duration_ms": 8.0,
                    "children": [
                        {"name": "slot", "duration_ms": 1.0, "children": []}
                    ],
                }
            ],
        },
        {"name": "run", "duration_ms": 5.0, "children": []},
    ]


class TestRecording:
    def test_nested_spans_form_a_tree(self):
        registry = MetricsRegistry()
        with registry.span("outer"):
            with registry.span("inner"):
                pass
            with registry.span("inner"):
                pass
        assert len(registry.spans) == 1
        outer = registry.spans[0]
        assert outer["name"] == "outer"
        assert [child["name"] for child in outer["children"]] == ["inner", "inner"]
        assert outer["duration_ms"] >= sum(
            child["duration_ms"] for child in outer["children"]
        )

    def test_meta_merges_context_tags(self):
        registry = MetricsRegistry()
        with registry.context(run=7):
            with registry.span("run", extra="x") as node:
                pass
        assert node["meta"] == {"run": 7, "extra": "x"}

    def test_span_without_meta_omits_key(self):
        registry = MetricsRegistry()
        with registry.span("bare"):
            pass
        assert "meta" not in registry.spans[0]

    def test_duration_recorded_on_exception(self):
        registry = MetricsRegistry()
        try:
            with registry.span("boom"):
                raise RuntimeError("x")
        except RuntimeError:
            pass
        assert registry.spans[0]["duration_ms"] >= 0.0
        # The stack unwound: a new span is a sibling, not a child.
        with registry.span("after"):
            pass
        assert [s["name"] for s in registry.spans] == ["boom", "after"]

    def test_module_level_span_targets_active_registry(self):
        with telemetry_session() as registry:
            with span("top"):
                pass
        assert [s["name"] for s in registry.spans] == ["top"]


class TestReadSide:
    def test_walk_is_depth_first_with_depths(self):
        walked = [(depth, node["name"]) for depth, node in walk_spans(_tree())]
        assert walked == [
            (0, "run"),
            (1, "simulate"),
            (2, "slot"),
            (0, "run"),
        ]

    def test_render_indents_and_formats(self):
        text = render_spans(_tree())
        lines = text.splitlines()
        assert lines[0] == "run: 10.000 ms"
        assert lines[1] == "  simulate: 8.000 ms"
        assert lines[2] == "    slot: 1.000 ms"

    def test_render_min_ms_hides_subtrees(self):
        text = render_spans(_tree(), min_ms=6.0)
        assert "slot" not in text  # its own 1 ms is under the threshold
        assert "simulate" in text
        hidden = render_spans(_tree(), min_ms=9.0)
        # simulate (8 ms) is hidden and takes its slot child down with it.
        assert "simulate" not in hidden
        assert "slot" not in hidden
        assert "run" in hidden

    def test_render_empty(self):
        assert render_spans([]) == "(no spans recorded)"


class TestEdgeCases:
    def test_empty_tree_walks_and_aggregates_to_nothing(self):
        assert list(walk_spans([])) == []

    def test_unclosed_span_is_visible_with_zero_duration(self):
        # A crash inside a span leaves the node recorded (duration 0.0
        # until the context exits); the read side must not choke on it.
        registry = MetricsRegistry()
        cm = registry.span("never-exited")
        cm.__enter__()
        assert [s["name"] for s in registry.spans] == ["never-exited"]
        assert registry.spans[0]["duration_ms"] == 0.0
        assert render_spans(registry.spans).startswith("never-exited: 0.000 ms")

    def test_deep_nesting_walks_iteratively(self):
        # walk_spans is an explicit-stack traversal; a tree far deeper
        # than the interpreter's recursion limit must still walk.
        depth = 5000
        node = {"name": "leaf", "duration_ms": 1.0, "children": []}
        for level in range(depth - 1):
            node = {"name": f"n{level}", "duration_ms": 1.0, "children": [node]}
        walked = list(walk_spans([node]))
        assert len(walked) == depth
        assert walked[0][0] == 0
        assert walked[-1] == (depth - 1, {"name": "leaf", "duration_ms": 1.0,
                                          "children": []})
        assert len(render_spans([node]).splitlines()) == depth

    def test_deeply_nested_live_spans_round_trip(self):
        registry = MetricsRegistry()
        contexts = [registry.span(f"level{i}") for i in range(50)]
        for cm in contexts:
            cm.__enter__()
        for cm in reversed(contexts):
            cm.__exit__(None, None, None)
        walked = list(walk_spans(registry.spans))
        assert [depth for depth, _ in walked] == list(range(50))
        assert all(node["duration_ms"] >= 0.0 for _, node in walked)
