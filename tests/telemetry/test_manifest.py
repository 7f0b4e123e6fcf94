"""Round-trip and corruption tests for the JSON-lines run manifest."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.telemetry import (
    MANIFEST_FORMAT,
    MetricsRegistry,
    read_manifest,
    write_manifest,
)


def _recorded_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("solver.iterations").inc(42)
    registry.gauge("sweep.workers").set(4)
    registry.histogram("slot.wall_ms").observe(1.5)
    registry.histogram("slot.wall_ms").observe(2.5)
    with registry.context(run=1, algorithm="online-approx"):
        registry.event("slot", slot=0, op=1.0, sq=2.0, rc=0.0, mg=0.0, total=3.0)
        registry.event("run_end", slots=1, totals={"total": 3.0})
    with registry.span("run"):
        with registry.span("simulate"):
            pass
    return registry


class TestRoundTrip:
    def test_everything_survives(self, tmp_path):
        registry = _recorded_registry()
        path = tmp_path / "run.jsonl"
        config = {"command": "fig2", "users": 6}
        written = write_manifest(path, registry, config=config)
        assert written == path

        record = read_manifest(path)
        assert record.config == config
        assert record.counters == {"solver.iterations": 42.0}
        assert record.gauges == {"sweep.workers": 4.0}
        assert record.histograms["slot.wall_ms"]["count"] == 2
        assert record.histograms["slot.wall_ms"]["total"] == 4.0
        assert record.events == registry.events
        assert record.spans[0]["name"] == "run"
        assert record.spans[0]["children"][0]["name"] == "simulate"
        assert record.created_unix > 0

    def test_event_helpers(self, tmp_path):
        path = write_manifest(tmp_path / "run.jsonl", _recorded_registry())
        record = read_manifest(path)
        assert len(record.slot_events) == 1
        assert record.slot_events[0]["algorithm"] == "online-approx"
        assert len(record.run_ends) == 1
        assert record.events_of_type("nope") == []

    def test_empty_registry_round_trips(self, tmp_path):
        path = write_manifest(tmp_path / "empty.jsonl", MetricsRegistry())
        record = read_manifest(path)
        assert record.events == []
        assert record.counters == {}

    def test_numpy_values_serialize(self, tmp_path):
        registry = MetricsRegistry()
        registry.event(
            "slot", slot=np.int64(3), total=np.float64(1.5), vec=np.arange(2)
        )
        record = read_manifest(write_manifest(tmp_path / "np.jsonl", registry))
        event = record.slot_events[0]
        assert event["slot"] == 3
        assert event["total"] == 1.5
        assert event["vec"] == [0, 1]

    def test_file_is_one_json_object_per_line(self, tmp_path):
        path = write_manifest(tmp_path / "run.jsonl", _recorded_registry())
        lines = path.read_text().strip().splitlines()
        records = [json.loads(line) for line in lines]
        assert records[0]["type"] == "manifest_start"
        assert records[0]["format"] == MANIFEST_FORMAT
        assert records[-1]["type"] == "manifest_end"
        assert {"metrics", "spans"} <= {r["type"] for r in records}


class TestCorruption:
    def test_truncated_file_is_rejected(self, tmp_path):
        path = write_manifest(tmp_path / "run.jsonl", _recorded_registry())
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")  # drop manifest_end
        with pytest.raises(ValueError, match="truncated"):
            read_manifest(path)

    def test_event_count_mismatch_is_rejected(self, tmp_path):
        path = write_manifest(tmp_path / "run.jsonl", _recorded_registry())
        lines = path.read_text().splitlines()
        del lines[1]  # drop one event line but keep manifest_end's count
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="events"):
            read_manifest(path)

    def test_unknown_format_is_rejected(self, tmp_path):
        path = write_manifest(tmp_path / "run.jsonl", MetricsRegistry())
        text = path.read_text().replace(MANIFEST_FORMAT, "someone.else/9")
        path.write_text(text)
        with pytest.raises(ValueError, match="format"):
            read_manifest(path)

    def test_torn_json_line_is_rejected_when_strict(self, tmp_path):
        path = write_manifest(tmp_path / "run.jsonl", _recorded_registry())
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        with pytest.raises(ValueError):
            read_manifest(path)


class TestNonStrictLoad:
    def test_truncated_manifest_loads_with_flag(self, tmp_path):
        path = write_manifest(tmp_path / "run.jsonl", _recorded_registry())
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")  # drop manifest_end
        record = read_manifest(path, strict=False)
        assert record.truncated
        assert record.slot_events  # everything before the tear survives

    def test_torn_trailing_line_is_dropped(self, tmp_path):
        path = write_manifest(tmp_path / "run.jsonl", _recorded_registry())
        text = path.read_text()
        path.write_text(text[: int(len(text) * 0.6)])  # mid-record tear
        # Parse keeps every complete record and stops at the torn line.
        record = read_manifest(path, strict=False)
        assert record.truncated

    def test_complete_manifest_is_not_marked_truncated(self, tmp_path):
        path = write_manifest(tmp_path / "run.jsonl", _recorded_registry())
        record = read_manifest(path, strict=False)
        assert not record.truncated

    def test_every_mid_line_tear_yields_a_usable_partial_record(self, tmp_path):
        """Regression sweep: tearing the file at *any* byte inside its
        last line must still return every earlier complete record."""
        path = write_manifest(tmp_path / "run.jsonl", _recorded_registry())
        text = path.read_text()
        lines = text.splitlines(keepends=True)
        body_end = len(text) - len(lines[-1])
        # Cut at a spread of offsets inside the final line: nothing of it,
        # one byte, half of it, and all but the closing brace+newline.
        last_len = len(lines[-1])
        for offset in {0, 1, last_len // 2, last_len - 2}:
            torn = tmp_path / f"torn{offset}.jsonl"
            torn.write_text(text[: body_end + offset])
            record = read_manifest(torn, strict=False)
            assert record.truncated
            assert len(record.slot_events) == 1  # the body survived intact

    def test_live_streaming_file_reads_as_partial_run_record(self, tmp_path):
        """A manifest mid-stream (no metrics/spans/end yet, torn tail)
        loads non-strict with events intact — what `watch` relies on."""
        from repro.telemetry import StreamingManifestWriter

        path = tmp_path / "live.jsonl"
        writer = StreamingManifestWriter(path, flush_every=1)
        for slot in range(3):
            writer.emit({"type": "slot", "slot": slot, "total": 1.0})
        # Simulate a write caught mid-line by appending a torn record.
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"type": "slot", "slot": 3, "to')
        record = read_manifest(path, strict=False)
        assert record.truncated
        assert [e["slot"] for e in record.slot_events] == [0, 1, 2]
        assert record.counters == {}  # metrics section not written yet
        writer.finalize(None)


class TestNotAManifest:
    """A file whose first record is not ``manifest_start`` is refused."""

    BUNDLE = (
        '{"type": "incident_start", "format": "repro.incident/1"}\n'
        '{"type": "incident_end", "snapshots": 0}\n'
    )

    @pytest.mark.parametrize("strict", [True, False])
    @pytest.mark.parametrize(
        "text", [BUNDLE, "not json at all\n", "[1, 2]\n", "", "\n\n"],
        ids=["bundle", "garbage", "json-array", "empty", "blank"],
    )
    def test_refused_in_both_modes(self, tmp_path, strict, text):
        path = tmp_path / "other.jsonl"
        path.write_text(text)
        with pytest.raises(ValueError, match="other.jsonl"):
            read_manifest(path, strict=strict)

    def test_first_record_kind_is_named(self, tmp_path):
        path = tmp_path / "bundle.jsonl"
        path.write_text(self.BUNDLE)
        with pytest.raises(ValueError, match="not a run manifest.*incident_start"):
            read_manifest(path, strict=False)


class TestOneWriter:
    """``write_manifest`` writes through the streaming writer's layout."""

    def test_buffered_manifest_marks_itself_not_streaming(self, tmp_path):
        path = write_manifest(tmp_path / "run.jsonl", _recorded_registry())
        first = json.loads(path.read_text().splitlines()[0])
        assert first["streaming"] is False

    def test_buffered_and_streamed_layouts_match(self, tmp_path):
        from repro.telemetry import streaming_manifest_session

        registry = _recorded_registry()
        buffered = write_manifest(tmp_path / "buffered.jsonl", registry)
        streamed = tmp_path / "streamed.jsonl"
        with streaming_manifest_session(streamed, max_events=None) as live:
            for event in registry.events:
                fields = {k: v for k, v in event.items() if k != "type"}
                live.event(event["type"], **fields)

        def kinds(path):
            return [json.loads(line)["type"] for line in path.read_text().splitlines()]

        assert kinds(buffered) == kinds(streamed)
        assert read_manifest(buffered).events == read_manifest(streamed).events
