"""Unit and property tests for the metrics primitives and the registry.

The load-bearing property is merge associativity: the parallel executor
folds per-cell snapshots into the caller's registry in input order, and
any *grouping* of those merges must produce identical aggregates (the
merge order is fixed; associativity is what makes partial pre-merges
safe). Integer-valued observations make the property exact — float
addition itself is not associative, which is precisely why the executor
also pins the merge order.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry import (
    NULL_REGISTRY,
    MetricsRegistry,
    NullRegistry,
    get_registry,
    set_registry,
    telemetry_enabled,
    telemetry_session,
)
from repro.telemetry import metrics as metrics_module


class TestInstruments:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.counter("a").inc(2.5)
        assert registry.counter("a").value == 3.5

    def test_counter_identity(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.counter("a") is not registry.counter("b")

    def test_gauge_last_write_wins(self):
        registry = MetricsRegistry()
        registry.gauge("g").set(4)
        registry.gauge("g").set(7)
        assert registry.gauge("g").value == 7.0

    def test_histogram_moments(self):
        registry = MetricsRegistry()
        for value in (3.0, 1.0, 2.0):
            registry.histogram("h").observe(value)
        h = registry.histogram("h")
        assert h.count == 3
        assert h.total == 6.0
        assert h.minimum == 1.0
        assert h.maximum == 3.0
        assert h.mean == 2.0

    def test_empty_histogram_as_dict(self):
        h = MetricsRegistry().histogram("h")
        assert h.as_dict() == {
            "count": 0,
            "total": 0.0,
            "min": None,
            "max": None,
            "mean": 0.0,
            "p50": None,
            "p95": None,
            "p99": None,
            "buckets": {},
        }


class TestPercentileSketch:
    def test_single_observation_is_exact(self):
        h = MetricsRegistry().histogram("h")
        h.observe(3.25)
        assert h.percentile(0.5) == 3.25
        assert h.percentile(0.99) == 3.25

    def test_percentiles_within_relative_error(self):
        h = MetricsRegistry().histogram("h")
        values = [float(v) for v in range(1, 1001)]
        for value in values:
            h.observe(value)
        for q, expected in ((0.50, 500.0), (0.95, 950.0), (0.99, 990.0)):
            got = h.percentile(q)
            assert abs(got - expected) / expected < 0.08, (q, got)

    def test_percentiles_clamped_to_observed_range(self):
        h = MetricsRegistry().histogram("h")
        for value in (10.0, 10.5, 11.0):
            h.observe(value)
        assert 10.0 <= h.percentile(0.5) <= 11.0
        assert 10.0 <= h.percentile(0.99) <= 11.0

    def test_nonpositive_values_land_in_bucket_zero(self):
        h = MetricsRegistry().histogram("h")
        for value in (-5.0, 0.0, -1.0):
            h.observe(value)
        assert set(h.buckets) == {0}
        assert h.percentile(0.5) == -5.0  # bucket-0 representative: the min

    def test_merge_matches_direct_bucketing(self):
        a, b = MetricsRegistry().histogram("h"), MetricsRegistry().histogram("h")
        direct = MetricsRegistry().histogram("h")
        for value in (0.001, 1.0, 250.0):
            a.observe(value)
            direct.observe(value)
        for value in (3.0, 3e6):
            b.observe(value)
            direct.observe(value)
        a.merge(b)
        assert a.buckets == direct.buckets
        assert a.as_dict() == direct.as_dict()

    def test_snapshot_merge_coerces_string_bucket_keys(self):
        import json

        source = MetricsRegistry()
        for value in (1.0, 2.0, 400.0):
            source.histogram("h").observe(value)
        round_tripped = json.loads(json.dumps(source.snapshot()))
        target = MetricsRegistry()
        target.merge_snapshot(round_tripped)
        assert target.histogram("h").buckets == source.histogram("h").buckets


class TestEventsAndContext:
    def test_event_records_type_and_payload(self):
        registry = MetricsRegistry()
        registry.event("slot", slot=3, total=1.5)
        assert registry.events == [{"type": "slot", "slot": 3, "total": 1.5}]

    def test_context_tags_events(self):
        registry = MetricsRegistry()
        with registry.context(cell="c0", seed=42):
            registry.event("slot", slot=0)
        registry.event("bare")
        assert registry.events[0] == {
            "type": "slot",
            "cell": "c0",
            "seed": 42,
            "slot": 0,
        }
        assert registry.events[1] == {"type": "bare"}

    def test_context_nesting_shadows_and_restores(self):
        registry = MetricsRegistry()
        with registry.context(run=1, algorithm="a"):
            with registry.context(run=2):
                registry.event("inner")
            registry.event("outer")
        assert registry.events[0]["run"] == 2
        assert registry.events[0]["algorithm"] == "a"
        assert registry.events[1]["run"] == 1

    def test_run_ids_unique_per_registry(self):
        registry = MetricsRegistry()
        ids = [registry.next_run_id() for _ in range(5)]
        assert ids == [1, 2, 3, 4, 5]


class TestActiveRegistry:
    def test_default_is_shared_null(self):
        assert get_registry() is NULL_REGISTRY
        assert not telemetry_enabled()

    def test_session_installs_and_restores(self):
        with telemetry_session() as registry:
            assert get_registry() is registry
            assert telemetry_enabled()
            with telemetry_session() as inner:
                assert get_registry() is inner
            assert get_registry() is registry
        assert get_registry() is NULL_REGISTRY

    def test_set_registry_returns_previous(self):
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            assert previous is NULL_REGISTRY
            assert get_registry() is registry
        finally:
            set_registry(previous)

    def test_null_registry_is_inert(self):
        null = NullRegistry()
        null.counter("a").inc(10)
        null.gauge("g").set(5)
        null.histogram("h").observe(1.0)
        null.event("anything", x=1)
        with null.span("s"):
            with null.context(cell="c"):
                pass
        snap = null.snapshot()
        assert snap["counters"] == {}
        assert snap["events"] == []
        assert snap["spans"] == []
        assert null.next_run_id() == 0

    def test_null_instruments_are_cached_singletons(self):
        null = NullRegistry()
        assert null.counter("a") is null.counter("b")
        assert null.histogram("a") is null.histogram("b")


def _registry_from(spec: list[tuple[str, int]]) -> dict:
    """Build a snapshot from ``(name, value)`` counter/histogram pairs."""
    registry = MetricsRegistry()
    for name, value in spec:
        registry.counter(f"c.{name}").inc(value)
        registry.histogram(f"h.{name}").observe(value)
    return registry.snapshot()


def _merged(snapshots: list[dict]) -> dict:
    registry = MetricsRegistry()
    for snap in snapshots:
        registry.merge_snapshot(snap)
    return registry.snapshot()


_spec = st.lists(
    st.tuples(
        st.sampled_from(["x", "y", "z"]),
        st.integers(min_value=-1000, max_value=1000),
    ),
    max_size=5,
)


class TestMergeAssociativity:
    @given(a=_spec, b=_spec, c=_spec)
    @settings(max_examples=100, deadline=None)
    def test_grouping_does_not_matter(self, a, b, c):
        """((a ⊕ b) ⊕ c) == (a ⊕ (b ⊕ c)) for integer-valued metrics."""
        snap_a, snap_b, snap_c = _registry_from(a), _registry_from(b), _registry_from(c)
        left = _merged([_merged([snap_a, snap_b]), snap_c])
        right = _merged([snap_a, _merged([snap_b, snap_c])])
        assert left == right

    @given(a=_spec, b=_spec)
    @settings(max_examples=50, deadline=None)
    def test_merge_matches_direct_recording(self, a, b):
        """Recording everything in one registry == merging two snapshots."""
        direct = _registry_from(a + b)
        merged = _merged([_registry_from(a), _registry_from(b)])
        assert direct == merged

    def test_gauge_merge_is_last_write_wins(self):
        first, second = MetricsRegistry(), MetricsRegistry()
        first.gauge("g").set(1)
        second.gauge("g").set(2)
        target = MetricsRegistry()
        target.merge_snapshot(first.snapshot())
        target.merge_snapshot(second.snapshot())
        assert target.gauge("g").value == 2.0

    def test_merge_preserves_event_order(self):
        first, second = MetricsRegistry(), MetricsRegistry()
        first.event("a")
        second.event("b")
        target = MetricsRegistry()
        target.merge_snapshot(first.snapshot())
        target.merge_snapshot(second.snapshot())
        assert [e["type"] for e in target.events] == ["a", "b"]


class TestSummaryTable:
    def test_contains_every_metric(self):
        registry = MetricsRegistry()
        registry.counter("solver.ipm.unconverged").inc()
        registry.gauge("sweep.workers").set(4)
        registry.histogram("slot.wall_ms").observe(1.5)
        table = registry.summary_table()
        assert "solver.ipm.unconverged" in table
        assert "sweep.workers" in table
        assert "slot.wall_ms" in table
        assert "count=1" in table

    def test_empty_registry(self):
        assert "none recorded" in MetricsRegistry().summary_table()


class TestSpanCap:
    def test_children_beyond_cap_are_dropped_and_counted(self, monkeypatch):
        monkeypatch.setattr(metrics_module, "MAX_SPAN_CHILDREN", 3)
        registry = MetricsRegistry()
        with registry.span("parent"):
            for index in range(5):
                with registry.span(f"child-{index}"):
                    pass
        assert len(registry.spans[0]["children"]) == 3
        assert registry.counter("telemetry.spans.dropped").value == 2.0
