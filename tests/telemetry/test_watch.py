"""``repro-edge watch``: tailing, live state folding, and strict exits.

The concurrent-writer test is the acceptance test for the live path: a
background thread streams a manifest while ``watch`` follows the file,
and the final frame must reflect the completed run.
"""

from __future__ import annotations

import io
import json
import threading
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cli import main
from repro.telemetry import (
    ManifestTail,
    MetricsRegistry,
    WatchState,
    read_manifest,
    streaming_manifest_session,
    watch,
    write_manifest,
)
from repro.telemetry.sinks import StreamingManifestWriter
from repro.telemetry.watch import TopN


def _write_line(path, record) -> None:
    with path.open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(record) + "\n")


class TestManifestTail:
    def test_missing_file_polls_empty(self, tmp_path):
        tail = ManifestTail(tmp_path / "nope.jsonl")
        assert tail.poll() == []

    def test_incremental_polls_return_only_new_records(self, tmp_path):
        path = tmp_path / "run.jsonl"
        tail = ManifestTail(path)
        _write_line(path, {"type": "slot", "slot": 0})
        assert [r["slot"] for r in tail.poll()] == [0]
        assert tail.poll() == []
        _write_line(path, {"type": "slot", "slot": 1})
        assert [r["slot"] for r in tail.poll()] == [1]

    def test_torn_trailing_line_is_buffered_until_complete(self, tmp_path):
        path = tmp_path / "run.jsonl"
        tail = ManifestTail(path)
        full = json.dumps({"type": "slot", "slot": 7})
        with path.open("w") as handle:
            handle.write(full[:10])  # a write caught mid-line
        assert tail.poll() == []
        assert tail.corrupt_lines == 0
        with path.open("a") as handle:
            handle.write(full[10:] + "\n")
        assert [r["slot"] for r in tail.poll()] == [7]

    def test_complete_but_corrupt_line_is_counted_and_skipped(self, tmp_path):
        path = tmp_path / "run.jsonl"
        tail = ManifestTail(path)
        with path.open("w") as handle:
            handle.write("{not json}\n")
            handle.write(json.dumps({"type": "slot", "slot": 1}) + "\n")
        assert [r["slot"] for r in tail.poll()] == [1]
        assert tail.corrupt_lines == 1


class TestTopN:
    @given(st.lists(st.integers(0, 4), max_size=40), st.integers(1, 6))
    def test_holds_exactly_the_sorted_prefix(self, values, size):
        items = list(enumerate(values))  # (file position, rank)
        ranked = TopN(size, key=lambda item: item[1])
        first = TopN(size)
        for item in items:
            ranked.add(item)
            first.add(item)
        assert ranked.items == sorted(
            items, key=lambda item: item[1], reverse=True
        )[:size]
        assert first.items == items[:size]
        assert ranked.count == first.count == len(items)


class TestWatchState:
    def _slot(self, slot, run=1, **extra):
        return {
            "type": "slot", "slot": slot, "run": run,
            "algorithm": "online-approx", "wall_ms": 1.0,
            "op": 1.0, "sq": 2.0, "rc": 0.5, "mg": 0.5, "total": 4.0,
            **extra,
        }

    def test_folds_slots_runs_and_costs(self):
        state = WatchState(rules=[])
        state.update({"type": "manifest_start", "config": {"users": 4}})
        state.update_all([self._slot(0), self._slot(1)])
        state.update({"type": "run_end", "run": 1, "algorithm": "online-approx"})
        assert state.started and not state.done
        assert state.total_slots == 2
        assert state.totals["total"] == 8.0
        ((_, view),) = state.runs.items()
        assert view.finished
        state.update({"type": "manifest_end", "events": 3})
        assert state.done

    def test_render_shows_the_load_bearing_lines(self):
        state = WatchState(rules=[])
        state.update({"type": "manifest_start", "config": {"users": 4}})
        state.update(self._slot(0))
        state.update({"type": "solver.ipm.trace", "iterations": 12})
        state.update(
            {"type": "diag.ratio.point", "slot": 0, "ratio": 1.4, "bound": 2.0}
        )
        text = state.render(title="run.jsonl")
        assert "[LIVE]" in text
        assert "users=4" in text
        assert "1 done" in text
        assert "12 iterations / 1 solves" in text
        assert "1.4000 vs bound 2.0000" in text
        assert "alerts : none" in text

    def test_render_before_any_data_says_waiting(self):
        assert "[WAITING]" in WatchState(rules=[]).render()

    def test_file_alerts_and_rederived_alerts_dedup(self):
        # Default rules re-derive the same certificate-gap alert the
        # manifest already recorded: it must be listed once.
        state = WatchState()
        state.update({"type": "diag.certificate", "slot": 3, "relative_gap": 1.0})
        assert len(state.alerts) == 1
        state.update(
            {"type": "alert", "rule": "certificate-gap", "slot": 3,
             "message": "recorded in the file"}
        )
        assert len(state.alerts) == 1
        assert state.render().count("certificate-gap") == 1

    def test_service_slots_fold_into_the_svc_line(self):
        state = WatchState(rules=[])
        state.update({"type": "service.slot", "slot": 0, "latency_ms": 2.0})
        state.update(
            {"type": "service.slot", "slot": 1, "latency_ms": 9.0,
             "deadline_miss": True}
        )
        assert state.service_slots == 2
        assert state.service_misses == 1
        text = state.render()
        assert "svc    : 2 request(s)" in text
        assert "p50" in text and "p95" in text
        assert "1 deadline miss(es)" in text

    def test_phase_profiles_fold_into_the_phases_line(self):
        state = WatchState(rules=[])
        state.update(
            {"type": "prof.phases", "slot": 0,
             "phases": {"ipm.line_search": 8.0, "ipm.assemble": 1.0,
                        "spine.account": 0.5, "spine.checkpoint": 0.1}}
        )
        text = state.render()
        # Top-3 by p95, slowest first; the fourth phase is elided.
        phases_line = next(l for l in text.splitlines() if "phases :" in l)
        assert phases_line.index("ipm.line_search") < phases_line.index(
            "ipm.assemble"
        )
        assert "spine.checkpoint" not in phases_line
        assert "p95" in phases_line

    def test_no_service_or_profile_records_no_extra_lines(self):
        state = WatchState(rules=[])
        state.update(self._slot(0))
        text = state.render()
        assert "svc    :" not in text
        assert "phases :" not in text

    def test_slo_burn_and_incidents_fold_into_the_dashboard(self):
        state = WatchState(rules=[])
        state.update(
            {"type": "slo.burn", "objective": "deadline-miss",
             "state": "firing", "fast_burn": 12.0, "slow_burn": 4.0,
             "budget": 0.01}
        )
        state.update(
            {"type": "incident.written", "path": "/tmp/incident-000.jsonl",
             "rule": "deadline-miss", "snapshots": 4}
        )
        text = state.render()
        assert "FIRING deadline-miss" in text
        assert "burn fast 12.0x" in text
        assert "1 bundle(s) written" in text
        assert "/tmp/incident-000.jsonl" in text
        # Resolution clears the firing line but keeps the objective.
        state.update(
            {"type": "slo.burn", "objective": "deadline-miss",
             "state": "resolved", "fast_burn": 0.5, "slow_burn": 1.0,
             "budget": 0.01}
        )
        assert "healthy" in state.render()

    def test_duplicate_incident_paths_are_listed_once(self):
        state = WatchState(rules=[])
        record = {"type": "incident.written", "path": "/tmp/a.jsonl"}
        state.update(record)
        state.update(dict(record))
        assert state.incidents == ["/tmp/a.jsonl"]

    def test_ratio_trace_summary_overrides_points(self):
        state = WatchState(rules=[])
        state.update(
            {"type": "diag.ratio.point", "slot": 0, "ratio": 1.1, "bound": 2.0}
        )
        state.update(
            {"type": "diag.ratio.trace", "bound": 2.0, "final_ratio": 1.3,
             "worst_ratio": 1.5, "certified": True}
        )
        text = state.render()
        assert "1.3000 vs bound 2.0000" in text
        assert "worst prefix 1.5000" in text
        assert "certified: True" in text


class TestWatchLoop:
    def _finished_manifest(self, tmp_path, *, stall=False):
        path = tmp_path / "run.jsonl"
        writer = StreamingManifestWriter(path, flush_every=1)
        for slot in range(20):
            writer.emit({"type": "slot", "slot": slot, "wall_ms": 1.0})
        if stall:
            writer.emit({"type": "slot", "slot": 20, "wall_ms": 500.0})
        writer.finalize(None)
        return path

    def test_once_renders_and_returns_zero(self, tmp_path):
        path = self._finished_manifest(tmp_path)
        out = io.StringIO()
        assert watch(path, follow=False, stream=out) == 0
        assert "[COMPLETE]" in out.getvalue()

    def test_strict_exits_nonzero_on_injected_stall(self, tmp_path):
        path = self._finished_manifest(tmp_path, stall=True)
        out = io.StringIO()
        assert watch(path, follow=False, strict=True, stream=out) == 1
        assert "solver-stall" in out.getvalue()
        # The same manifest without --strict still exits 0.
        assert watch(path, follow=False, stream=io.StringIO()) == 0

    def test_follow_tracks_a_concurrent_writer_to_completion(self, tmp_path):
        path = tmp_path / "run.jsonl"

        def writer_thread():
            writer = StreamingManifestWriter(path, flush_every=1)
            for slot in range(5):
                writer.emit({"type": "slot", "slot": slot, "wall_ms": 1.0,
                             "total": 1.0})
                time.sleep(0.02)
            writer.finalize(None)

        thread = threading.Thread(target=writer_thread)
        thread.start()
        out = io.StringIO()
        code = watch(path, interval=0.02, timeout=30.0, stream=out)
        thread.join()
        assert code == 0
        assert "[COMPLETE]" in out.getvalue()
        assert "5 done" in out.getvalue()

    def test_timeout_stops_an_unfinished_manifest(self, tmp_path):
        path = tmp_path / "run.jsonl"
        _write_line(path, {"type": "manifest_start", "config": {}})
        start = time.monotonic()
        code = watch(path, interval=0.01, timeout=0.05, stream=io.StringIO())
        assert code == 0
        assert time.monotonic() - start < 5.0

    @pytest.mark.parametrize("text", [None, "", '{"type": "manifest_st'])
    def test_missing_empty_or_torn_file_keeps_waiting(self, tmp_path, text):
        path = tmp_path / "run.jsonl"
        if text is not None:
            path.write_text(text)
        out = io.StringIO()
        assert watch(path, interval=0.01, timeout=0.05, stream=out) == 0
        assert "[WAITING]" in out.getvalue()

    def test_bundle_raises_naming_the_file(self, tmp_path):
        path = tmp_path / "incident-000-x.jsonl"
        path.write_text('{"type": "incident_start"}\n{"type": "incident_end"}\n')
        with pytest.raises(ValueError, match="incident-000-x.jsonl"):
            watch(path, interval=0.01, timeout=5.0, stream=io.StringIO())

    def test_buffered_manifest_is_watchable_too(self, tmp_path):
        registry = MetricsRegistry()
        registry.event("slot", slot=0, wall_ms=1.0, total=2.0)
        path = write_manifest(tmp_path / "run.jsonl", registry)
        out = io.StringIO()
        assert watch(path, follow=False, stream=out) == 0
        assert "[COMPLETE]" in out.getvalue()


class TestWatchCli:
    def test_cli_watch_once(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        with streaming_manifest_session(path) as registry:
            registry.event("slot", slot=0, wall_ms=1.0, total=1.0)
        with pytest.raises(SystemExit) as excinfo:
            main(["watch", str(path), "--once"])
        assert excinfo.value.code == 0
        assert "[COMPLETE]" in capsys.readouterr().out

    def test_cli_watch_strict_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        writer = StreamingManifestWriter(path, flush_every=1)
        for slot in range(20):
            writer.emit({"type": "slot", "slot": slot, "wall_ms": 1.0})
        writer.emit({"type": "slot", "slot": 20, "wall_ms": 500.0})
        writer.finalize(None)
        with pytest.raises(SystemExit) as excinfo:
            main(["watch", str(path), "--once", "--strict"])
        assert excinfo.value.code == 1
        capsys.readouterr()

    @pytest.mark.parametrize(
        "text",
        ['{"type": "incident_start", "format": "repro.incident/1"}\n', "garbage\n"],
        ids=["bundle", "garbage"],
    )
    def test_non_manifest_exits_2_instead_of_following(self, tmp_path, capsys, text):
        path = tmp_path / "other.jsonl"
        path.write_text(text)
        assert main(["watch", str(path), "--interval", "0.01"]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("watch: ") and "not a run manifest" in line
        assert str(path) in line

    def test_directory_exits_2(self, tmp_path, capsys):
        assert main(["watch", str(tmp_path), "--once"]) == 2
        assert len(capsys.readouterr().err.splitlines()) == 1

    def test_watched_streaming_manifest_still_verifies(self, tmp_path):
        # Watching is read-only: the tailed file still strict-reads.
        path = tmp_path / "run.jsonl"
        with streaming_manifest_session(path) as registry:
            registry.event("slot", slot=0, wall_ms=1.0, total=1.0)
        assert watch(path, follow=False, stream=io.StringIO()) == 0
        assert not read_manifest(path).truncated
