"""Event sinks: streaming manifest writer, ring buffers, bounded registries.

The acceptance tests of the streaming plane: a manifest streamed
incrementally must be cost-identical (1e-9) to one buffered and written
after the fact — including through the parallel sweep's per-worker
snapshot merge — and must be readable as a valid partial manifest at any
instant before finalize.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis import load_manifest, verify_manifest_costs
from repro.baselines import OfflineOptimal, OnlineGreedy
from repro.cli import main
from repro.simulation import Scenario, compare_algorithms
from repro.telemetry import (
    MetricsRegistry,
    RingSink,
    StreamingManifestWriter,
    read_manifest,
    streaming_manifest_session,
    telemetry_session,
    write_manifest,
)

TINY = ["--users", "4", "--slots", "2", "--repetitions", "1"]


def _run_totals(record) -> list[tuple]:
    """(algorithm, totals) per run_end, in file order."""
    return [
        (event.get("algorithm"), event["totals"]) for event in record.run_ends
    ]


class TestRingSink:
    def test_keeps_newest_and_counts_drops(self):
        ring = RingSink(capacity=2)
        for index in range(5):
            ring.emit({"type": "slot", "slot": index})
        assert [r["slot"] for r in ring.records] == [3, 4]
        assert ring.emitted == 5
        assert ring.dropped == 3

    def test_zero_capacity_retains_nothing(self):
        ring = RingSink(capacity=0)
        ring.emit({"type": "slot"})
        assert list(ring.records) == []
        assert ring.dropped == 1

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            RingSink(capacity=-1)


class TestRegistryEventBounds:
    def test_ring_mode_evicts_and_counts(self):
        registry = MetricsRegistry(max_events=2)
        for index in range(5):
            registry.event("slot", slot=index)
        assert [e["slot"] for e in registry.events] == [3, 4]
        assert registry.counter("telemetry.events.dropped").value == 3

    def test_zero_keeps_nothing_in_memory(self):
        registry = MetricsRegistry(max_events=0)
        registry.event("slot", slot=0)
        assert list(registry.events) == []
        assert "telemetry.events.dropped" not in registry.snapshot()["counters"]

    def test_default_is_unbounded_without_drop_counter(self):
        registry = MetricsRegistry()
        for index in range(5):
            registry.event("slot", slot=index)
        assert len(registry.events) == 5
        assert "telemetry.events.dropped" not in registry.snapshot()["counters"]

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError, match="max_events"):
            MetricsRegistry(max_events=-1)

    def test_events_forward_to_sink_even_when_dropped(self):
        ring = RingSink(capacity=10)
        registry = MetricsRegistry(sink=ring, max_events=0)
        registry.event("slot", slot=7)
        assert [r["slot"] for r in ring.records] == [7]


class TestStreamingManifestWriter:
    def test_start_line_is_on_disk_immediately(self, tmp_path):
        path = tmp_path / "run.jsonl"
        writer = StreamingManifestWriter(path, config={"users": 4})
        first = json.loads(path.read_text().splitlines()[0])
        assert first["type"] == "manifest_start"
        assert first["config"] == {"users": 4}
        assert first["streaming"] is True
        writer.finalize(None)

    def test_partial_file_reads_as_truncated_manifest(self, tmp_path):
        path = tmp_path / "run.jsonl"
        writer = StreamingManifestWriter(path, flush_every=1)
        writer.emit({"type": "slot", "slot": 0, "total": 1.0})
        writer.emit({"type": "slot", "slot": 1, "total": 2.0})
        # Before finalize: a valid partial manifest (satellite c).
        record = read_manifest(path, strict=False)
        assert record.truncated
        assert [e["slot"] for e in record.slot_events] == [0, 1]
        writer.finalize(None)

    def test_finalized_file_passes_strict_read(self, tmp_path):
        path = tmp_path / "run.jsonl"
        registry = MetricsRegistry()
        registry.counter("solver.iterations").inc(3)
        with StreamingManifestWriter(path, flush_every=1) as writer:
            writer.emit({"type": "slot", "slot": 0})
            writer.finalize(registry)
        record = read_manifest(path)  # strict
        assert not record.truncated
        assert record.counters == {"solver.iterations": 3.0}
        assert len(record.events) == 1

    def test_finalize_is_idempotent_and_emit_after_raises(self, tmp_path):
        path = tmp_path / "run.jsonl"
        writer = StreamingManifestWriter(path)
        writer.emit({"type": "slot", "slot": 0})
        assert writer.finalize(None) == path
        before = path.read_text()
        assert writer.finalize(None) == path
        assert path.read_text() == before
        with pytest.raises(ValueError, match="finalized"):
            writer.emit({"type": "slot", "slot": 1})

    def test_interval_flush_policy(self, tmp_path):
        path = tmp_path / "run.jsonl"
        writer = StreamingManifestWriter(
            path, flush_every=1000, flush_interval_s=0.0
        )
        writer.emit({"type": "slot", "slot": 0})
        # interval 0 means every emit lands on disk despite flush_every.
        assert sum(1 for _ in path.open()) == 2  # start + slot
        writer.finalize(None)

    def test_bad_flush_every_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="flush_every"):
            StreamingManifestWriter(tmp_path / "x.jsonl", flush_every=0)


class TestStreamingSession:
    def test_streamed_equals_buffered_bit_identical(self, tmp_path):
        instance = Scenario(num_users=4, num_slots=3).build(seed=11)
        algorithms = lambda: [OfflineOptimal(), OnlineGreedy()]  # noqa: E731

        buffered = tmp_path / "buffered.jsonl"
        with telemetry_session() as registry:
            compare_algorithms(algorithms(), instance)
        write_manifest(buffered, registry)

        streamed = tmp_path / "streamed.jsonl"
        with streaming_manifest_session(streamed):
            compare_algorithms(algorithms(), instance)

        a, b = load_manifest(buffered), load_manifest(streamed)
        assert _run_totals(a) == _run_totals(b)  # exact float equality
        for check in verify_manifest_costs(b):
            assert check.ok(tol=1e-9), (check.key, check.deviation)

    def test_memory_bounded_by_default(self, tmp_path):
        with streaming_manifest_session(tmp_path / "run.jsonl") as registry:
            for index in range(100):
                registry.event("slot", slot=index)
            assert list(registry.events) == []  # nothing retained in RAM
        record = load_manifest(tmp_path / "run.jsonl")
        assert len(record.slot_events) == 100  # everything on disk

    def test_finalizes_even_when_the_block_raises(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with pytest.raises(RuntimeError):
            with streaming_manifest_session(path) as registry:
                registry.event("slot", slot=0)
                raise RuntimeError("boom")
        record = read_manifest(path)  # finalized despite the crash
        assert [e["slot"] for e in record.slot_events] == [0]


class TestCliStreaming:
    @pytest.mark.parametrize("workers", ["1", "4"])
    def test_streamed_cli_run_matches_buffered(self, tmp_path, capsys, workers):
        """Acceptance: run_end totals bit-identical (1e-9) buffered vs
        streamed, serial and under ``--workers 4``."""
        argv = ["fig2", *TINY, "--workers", workers]
        buffered = tmp_path / "buffered.jsonl"
        streamed = tmp_path / "streamed.jsonl"
        # Without telemetry flags the command records into the active
        # registry, which write_manifest then writes in one go.
        with telemetry_session() as registry:
            assert main(argv) == 0
        write_manifest(buffered, registry)
        assert main(argv + ["--telemetry", str(streamed)]) == 0
        capsys.readouterr()

        a, b = load_manifest(buffered), load_manifest(streamed)
        totals_a, totals_b = _run_totals(a), _run_totals(b)
        assert len(totals_a) == len(totals_b) > 0
        for (alg_a, t_a), (alg_b, t_b) in zip(totals_a, totals_b):
            assert alg_a == alg_b
            for key in t_a:
                scale = max(1.0, abs(t_a[key]))
                assert abs(t_a[key] - t_b[key]) <= 1e-9 * scale
        for check in verify_manifest_costs(b):
            assert check.ok(tol=1e-9), (check.key, check.deviation)

    def test_cli_manifest_always_streams(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        assert main(["fig2", *TINY, "--telemetry", str(path)]) == 0
        capsys.readouterr()
        first = json.loads(path.read_text().splitlines()[0])
        assert first["streaming"] is True
        assert load_manifest(path).slot_events
