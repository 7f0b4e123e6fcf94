"""Flight recorder: ring eviction, bundle IO, and deterministic replay.

The replay tests are the acceptance gate of the incident plane: a
bundle dumped from a budget-truncated or unconverged run must reproduce
every captured slot's costs, iteration count, and partial flag
bit-for-bit when replayed, and a tampered or torn bundle must be caught,
not glossed over.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregate import AggregationConfig
from repro.cli import main
from repro.core.regularization import OnlineRegularizedAllocator
from repro.simulation.observations import (
    SystemDescription,
    observations_from_instance,
)
from repro.simulation.spine import SlotStepper, simulate
from repro.solvers.base import SolveBudget
from repro.telemetry import (
    FlightRecorder,
    FlightRecorderSink,
    RingSink,
    active_recorder,
    flight_session,
    read_bundle,
    replay_bundle,
)
from repro.telemetry.flight import decode_state, encode_state
from tests.conftest import make_tiny_instance

#: An aggregated bundle (lambda_buckets=1, shards=2, max_iterations=14,
#: five slots, two of them budget-truncated) written by a release that
#: sharded the reduced solve and carried x*_{t-1} as a dense (I, J) matrix.
DENSE_LAYOUT_BUNDLE = Path(__file__).parent / "data" / "aggregated_dense_bundle.jsonl"


def _tiny_setup(
    num_slots: int = 5,
    budget: SolveBudget | None = None,
    aggregation: AggregationConfig | None = None,
    dynamic_prices: bool = True,
):
    instance = make_tiny_instance(num_slots=num_slots, dynamic_prices=dynamic_prices)
    system = SystemDescription.from_instance(instance)
    observations = observations_from_instance(instance)
    allocator = OnlineRegularizedAllocator(budget=budget, aggregation=aggregation)
    return system, observations, allocator.as_controller(system)


def _record_run(
    recorder: FlightRecorder,
    num_slots: int = 5,
    budget=None,
    aggregation=None,
    dynamic_prices=True,
):
    system, observations, controller = _tiny_setup(
        num_slots, budget, aggregation, dynamic_prices
    )
    stepper = SlotStepper(controller, system, keep_schedule=False)
    with flight_session(recorder):
        for observation in observations:
            stepper.step(observation)
        stepper.settle()


class TestStateCodec:
    def test_round_trips_arrays_with_dtype(self):
        value = np.arange(6, dtype=np.float64).reshape(2, 3)
        decoded = decode_state(json.loads(json.dumps(encode_state(value))))
        np.testing.assert_array_equal(decoded, value)
        assert decoded.dtype == value.dtype

    def test_round_trips_integer_arrays(self):
        value = np.array([[1, 2], [3, 4]], dtype=np.int64)
        decoded = decode_state(json.loads(json.dumps(encode_state(value))))
        assert decoded.dtype == np.int64
        np.testing.assert_array_equal(decoded, value)

    def test_distinguishes_tuples_from_lists(self):
        value = {"t": (1, 2.5, "x"), "l": [1, 2.5, "x"]}
        decoded = decode_state(json.loads(json.dumps(encode_state(value))))
        assert decoded["t"] == (1, 2.5, "x")
        assert isinstance(decoded["t"], tuple)
        assert isinstance(decoded["l"], list)

    def test_round_trips_bytes(self):
        value = {"digest": b"\x00\xffsig"}
        decoded = decode_state(json.loads(json.dumps(encode_state(value))))
        assert decoded["digest"] == b"\x00\xffsig"

    def test_numpy_scalars_become_python_scalars(self):
        assert encode_state(np.float64(1.5)) == 1.5
        assert encode_state(np.int32(7)) == 7

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            encode_state({"bad": {1, 2}})


class TestRingEviction:
    @settings(max_examples=50, deadline=None)
    @given(
        capacity=st.integers(min_value=1, max_value=8),
        slots=st.integers(min_value=0, max_value=40),
    )
    def test_never_exceeds_capacity_and_evicts_oldest_first(
        self, capacity, slots
    ):
        recorder = FlightRecorder(capacity)
        stepper = SimpleNamespace(
            system=object(),
            controller=object(),
            checkpoint=lambda: object(),
        )
        costs = SimpleNamespace(
            operation=0.0,
            service_quality=0.0,
            reconfiguration=0.0,
            migration=0.0,
            total=0.0,
        )
        for slot in range(slots):
            observation = SimpleNamespace(slot=slot)
            recorder.begin_slot(stepper, observation)
            recorder.end_slot(stepper, observation, costs, 0.0)
        assert len(recorder.snapshots) <= capacity
        assert recorder.snapshots_taken == slots
        expected = list(range(max(0, slots - capacity), slots))
        assert [s.slot for s in recorder.snapshots] == expected

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            FlightRecorder(0)

    def test_unmatched_begin_is_discarded(self):
        recorder = FlightRecorder(4)
        stepper = SimpleNamespace(
            system=object(), controller=object(), checkpoint=lambda: object()
        )
        costs = SimpleNamespace(
            operation=0.0,
            service_quality=0.0,
            reconfiguration=0.0,
            migration=0.0,
            total=0.0,
        )
        recorder.begin_slot(stepper, SimpleNamespace(slot=0))
        # A different observation seals nothing (interleaved steppers).
        recorder.end_slot(stepper, SimpleNamespace(slot=0), costs, 0.0)
        assert len(recorder.snapshots) == 0


class TestFlightSession:
    def test_session_installs_and_restores_the_recorder(self):
        recorder = FlightRecorder(2)
        assert active_recorder() is None
        with flight_session(recorder):
            assert active_recorder() is recorder
            with flight_session(None):
                assert active_recorder() is None
            assert active_recorder() is recorder
        assert active_recorder() is None

    def test_global_recorder_captures_spine_slots(self):
        recorder = FlightRecorder(3)
        system, observations, controller = _tiny_setup()
        with flight_session(recorder):
            stepper = SlotStepper(controller, system, keep_schedule=False)
            for observation in observations:
                stepper.step(observation)
            stepper.settle()
        assert recorder.snapshots_taken == len(observations)
        assert len(recorder.snapshots) == 3


class TestBundleIO:
    def test_dump_and_read_round_trip(self, tmp_path):
        recorder = FlightRecorder(4, incident_dir=tmp_path)
        _record_run(recorder)
        path = recorder.dump()
        bundle = read_bundle(path)
        assert bundle.reason == "manual"
        assert not bundle.truncated
        assert len(bundle.snapshots) == 4
        assert bundle.controller["kind"] == "regularized"
        assert bundle.controller["replayable"] is True
        assert bundle.environment["python"]
        assert [s["slot"] for s in bundle.snapshots] == [1, 2, 3, 4]

    def test_dump_without_snapshots_writes_nothing(self, tmp_path):
        recorder = FlightRecorder(4, incident_dir=tmp_path)
        assert recorder.dump() is None
        assert list(tmp_path.iterdir()) == []

    def test_alert_event_triggers_auto_dump(self, tmp_path):
        recorder = FlightRecorder(4, incident_dir=tmp_path)
        _record_run(recorder)
        recorder.observe_event(
            {"type": "alert", "rule": "deadline-miss", "message": "storm"}
        )
        assert len(recorder.bundles_written) == 1
        bundle = read_bundle(recorder.bundles_written[0])
        assert bundle.reason == "alert:deadline-miss"
        assert bundle.alert["rule"] == "deadline-miss"

    def test_repeated_alerts_are_cooled_down(self, tmp_path):
        recorder = FlightRecorder(4, incident_dir=tmp_path)
        _record_run(recorder)
        alert = {"type": "alert", "rule": "deadline-miss", "message": "storm"}
        recorder.observe_event(alert)
        recorder.observe_event(alert)  # same ring content: suppressed
        assert len(recorder.bundles_written) == 1
        assert recorder.dumps_suppressed == 1

    def test_sink_tees_events_into_the_context_window(self, tmp_path):
        recorder = FlightRecorder(4, incident_dir=tmp_path)
        inner = RingSink(capacity=16)
        sink = FlightRecorderSink(inner, recorder)
        sink.emit({"type": "slot", "slot": 0, "wall_ms": 1.0})
        assert inner.records[0]["type"] == "slot"
        _record_run(recorder)
        sink.emit({"type": "alert", "rule": "solver-stall", "message": "x"})
        assert len(recorder.bundles_written) == 1
        bundle = read_bundle(recorder.bundles_written[0])
        kinds = [e.get("type") for e in bundle.context["events"]]
        assert "slot" in kinds and "alert" in kinds


class TestTornBundles:
    def _torn_copy(self, tmp_path, drop_lines: int = 2):
        recorder = FlightRecorder(4, incident_dir=tmp_path)
        _record_run(recorder)
        path = recorder.dump()
        lines = path.read_text().splitlines()
        torn = tmp_path / "torn.jsonl"
        torn.write_text("\n".join(lines[:-drop_lines]) + "\n")
        return torn

    def test_strict_read_raises_on_truncation(self, tmp_path):
        torn = self._torn_copy(tmp_path)
        with pytest.raises(ValueError, match="truncated"):
            read_bundle(torn)

    def test_salvage_read_marks_truncated(self, tmp_path):
        torn = self._torn_copy(tmp_path)
        bundle = read_bundle(torn, strict=False)
        assert bundle.truncated
        assert len(bundle.snapshots) >= 1

    def test_salvage_read_drops_a_half_written_line(self, tmp_path):
        recorder = FlightRecorder(4, incident_dir=tmp_path)
        _record_run(recorder)
        path = recorder.dump()
        lines = path.read_text().splitlines()
        torn = tmp_path / "half.jsonl"
        torn.write_text("\n".join(lines[:-2]) + "\n" + lines[-2][: len(lines[-2]) // 2])
        with pytest.raises(ValueError, match="unparseable"):
            read_bundle(torn)
        bundle = read_bundle(torn, strict=False)
        assert bundle.truncated

    def test_replay_refuses_truncated_bundles(self, tmp_path):
        torn = self._torn_copy(tmp_path)
        bundle = read_bundle(torn, strict=False)
        with pytest.raises(ValueError, match="refusing to replay"):
            replay_bundle(bundle)

    def test_read_rejects_non_bundles(self, tmp_path):
        other = tmp_path / "not-a-bundle.jsonl"
        other.write_text(json.dumps({"type": "slot", "slot": 0}) + "\n")
        with pytest.raises(ValueError, match="incident_start"):
            read_bundle(other)

    def test_read_rejects_unknown_formats(self, tmp_path):
        other = tmp_path / "future.jsonl"
        other.write_text(
            json.dumps({"type": "incident_start", "format": "repro.incident/99"})
            + "\n"
        )
        with pytest.raises(ValueError, match="unknown incident format"):
            read_bundle(other)


class TestReplay:
    @pytest.mark.parametrize(
        "aggregation", [None, AggregationConfig()], ids=["direct", "aggregated"]
    )
    def test_unconverged_slots_reproduce_bit_for_bit(self, tmp_path, aggregation):
        recorder = FlightRecorder(5, incident_dir=tmp_path)
        _record_run(recorder, aggregation=aggregation, dynamic_prices=False)
        bundle = read_bundle(recorder.dump())
        assert any(s["recorded"]["partial"] for s in bundle.snapshots)
        report = replay_bundle(bundle)
        assert report.ok, report.render()
        assert report.slots == 5
        assert "REPRODUCED bit-for-bit" in report.render()

    @pytest.mark.parametrize(
        "name", ["auto", "ipm", "structured-ipm+scipy-trust-constr"]
    )
    def test_older_backend_names_replay_on_the_ipm(self, tmp_path, name):
        def rename(record):
            if record["type"] == "incident_start":
                record["controller"]["backend"] = name

        older = tmp_path / "older.jsonl"
        recorder = FlightRecorder(4, incident_dir=tmp_path)
        _record_run(recorder)
        _rewrite_bundle(recorder.dump(), older, rename)
        assert replay_bundle(older).ok

    @pytest.mark.parametrize("aggregated", [False, True])
    def test_scipy_bundle_is_refused_by_name(self, tmp_path, capsys, aggregated):
        def to_scipy(record):
            if record["type"] == "incident_start":
                controller = record["controller"]
                if aggregated:
                    controller["aggregation"]["backend"] = "scipy"
                else:
                    controller["backend"] = "scipy"

        scipy_bundle = tmp_path / "scipy.jsonl"
        recorder = FlightRecorder(4, incident_dir=tmp_path)
        _record_run(
            recorder, aggregation=AggregationConfig() if aggregated else None
        )
        _rewrite_bundle(recorder.dump(), scipy_bundle, to_scipy)
        with pytest.raises(ValueError, match="SciPy trust-constr solver was retired"):
            replay_bundle(scipy_bundle)
        with pytest.raises(SystemExit) as exit_info:
            main(["incident", "replay", str(scipy_bundle)])
        assert str(exit_info.value.code).startswith("incident: ")
        assert "retired" in str(exit_info.value.code)

    def test_unbudgeted_run_reproduces_bit_for_bit(self, tmp_path):
        recorder = FlightRecorder(4, incident_dir=tmp_path)
        _record_run(recorder)
        report = replay_bundle(recorder.dump())
        assert report.ok
        assert report.slots == 4
        assert "REPRODUCED bit-for-bit" in report.render()

    def test_iteration_truncated_run_reproduces_bit_for_bit(self, tmp_path):
        recorder = FlightRecorder(4, incident_dir=tmp_path)
        _record_run(recorder, budget=SolveBudget(max_iterations=1))
        bundle = read_bundle(recorder.dump())
        assert all(s["recorded"]["partial"] for s in bundle.snapshots)
        report = replay_bundle(bundle)
        assert report.ok

    def test_replay_does_not_re_record(self, tmp_path):
        recorder = FlightRecorder(4, incident_dir=tmp_path)
        _record_run(recorder)
        path = recorder.dump()
        taken = recorder.snapshots_taken
        with flight_session(recorder):
            assert replay_bundle(path).ok
        assert recorder.snapshots_taken == taken

    def test_tampered_costs_are_reported_per_field(self, tmp_path):
        recorder = FlightRecorder(4, incident_dir=tmp_path)
        _record_run(recorder)
        path = recorder.dump()
        lines = []
        for line in path.read_text().splitlines():
            record = json.loads(line)
            if record.get("type") == "snapshot" and record["slot"] == 2:
                record["recorded"]["costs"]["migration"] += 1e-9
            lines.append(json.dumps(record))
        tampered = tmp_path / "tampered.jsonl"
        tampered.write_text("\n".join(lines) + "\n")
        report = replay_bundle(tampered)
        assert not report.ok
        assert [(d.slot, d.field) for d in report.diffs] == [
            (2, "costs.migration")
        ]
        assert "DIVERGED" in report.render()

    def test_refuses_non_replayable_controllers(self, tmp_path):
        class OpaqueController:
            def solve_slot(self, observation, x_prev):  # pragma: no cover
                raise NotImplementedError

        system, _, _ = _tiny_setup()
        recorder = FlightRecorder(2, incident_dir=tmp_path)
        stepper = SimpleNamespace(
            system=system, controller=OpaqueController(), checkpoint=lambda: None
        )
        costs = SimpleNamespace(
            operation=0.0,
            service_quality=0.0,
            reconfiguration=0.0,
            migration=0.0,
            total=0.0,
        )
        observation = SimpleNamespace(slot=0)
        recorder.begin_slot(stepper, observation)
        recorder.end_slot(stepper, observation, costs, 0.0)
        path = recorder.dump()
        with pytest.raises(ValueError, match="not replayable"):
            replay_bundle(path)


def _rewrite_bundle(source, target, edit) -> None:
    """Copy a bundle line by line, letting ``edit`` mutate each record."""
    lines = []
    for line in source.read_text().splitlines():
        record = json.loads(line)
        edit(record)
        lines.append(json.dumps(record))
    target.write_text("\n".join(lines) + "\n")


def _as_older_release(record: dict) -> None:
    """Give a fresh record the layout older releases wrote.

    Those releases recorded ``warm_start``, ``aggregation.warm_cohorts``,
    ``aggregation.batch_solves``, ``aggregation.workers`` (a process
    count, which never changed an unbudgeted or iteration-capped solve),
    ``aggregation.shard_slicing``, ``aggregation.shards`` and the backend
    by registry name (``auto``, at both levels), and the aggregated
    controller state was a 6-tuple: the two entries after the minimum
    operation price held the previous reduced solution (I, G) and the
    cohort-map signature (a tuple of bytes), and the last the capacity
    duals. I is the system's: this release's ``x*_{t-1}`` is factored,
    not an (I, J) array.
    """
    if record["type"] == "incident_start":
        record["controller"]["warm_start"] = True
        record["controller"]["backend"] = "auto"
        record["controller"]["aggregation"]["warm_cohorts"] = True
        record["controller"]["aggregation"]["batch_solves"] = True
        record["controller"]["aggregation"]["workers"] = 2
        record["controller"]["aggregation"]["shard_slicing"] = "price"
        record["controller"]["aggregation"]["shards"] = 1
        record["controller"]["aggregation"]["backend"] = "auto"
    elif record["type"] == "snapshot":
        signature = (b"\x00\x01", b"\x02", b"\xff")
        num_clouds = _tiny_setup()[0].num_clouds
        retired = (np.full((num_clouds, 2), 0.5), signature)
        duals = np.linspace(0.5, 2.0, num_clouds)
        record["controller_state"] = encode_state(
            (*decode_state(record["controller_state"]), *retired, duals)
        )


class TestAggregatedReplay:
    AGGREGATION = AggregationConfig()

    def _bundle(self, tmp_path):
        recorder = FlightRecorder(4, incident_dir=tmp_path)
        _record_run(recorder, aggregation=self.AGGREGATION)
        return recorder.dump()

    def test_aggregated_run_reproduces_bit_for_bit(self, tmp_path):
        bundle = read_bundle(self._bundle(tmp_path))
        assert bundle.controller["kind"] == "aggregated"
        report = replay_bundle(bundle)
        assert report.ok, report.render()
        assert report.slots == 4
        assert "REPRODUCED bit-for-bit" in report.render()

    def test_deadline_truncated_run_reproduces_bit_for_bit(
        self, tmp_path, monkeypatch
    ):
        # A clock that advances 1 s per read makes the 4.5 s deadline fire
        # mid-solve, deterministically: one lane's solve has one count.
        from repro.solvers import batched

        class SteppingClock:
            now = 0.0

            def perf_counter(self):
                self.now += 1.0
                return self.now

        monkeypatch.setattr(batched, "time", SteppingClock())
        recorder = FlightRecorder(4, incident_dir=tmp_path)
        _record_run(
            recorder,
            budget=SolveBudget(deadline_s=4.5),
            aggregation=self.AGGREGATION,
        )
        monkeypatch.undo()
        bundle = read_bundle(recorder.dump())
        assert bundle.controller["budget"]["deadline_s"] == 4.5
        assert any(s["recorded"]["partial"] for s in bundle.snapshots)
        report = replay_bundle(bundle)
        assert report.ok, report.render()
        assert report.slots == 4

    def test_snapshots_carry_x_prev_factored(self, tmp_path):
        system = _tiny_setup()[0]
        for snapshot in read_bundle(self._bundle(tmp_path)).snapshots:
            for x_prev in (
                decode_state(snapshot["controller_state"])[0],
                decode_state(snapshot["accumulator_state"]["x_prev"]),
            ):
                y, cohort_of, *_ = x_prev
                assert y.shape[0] == system.num_clouds
                assert cohort_of.shape == (system.num_users,)

    def test_sharded_dense_layout_bundle_is_refused_by_name(self, capsys):
        bundle = read_bundle(DENSE_LAYOUT_BUNDLE)
        assert bundle.controller["aggregation"]["shards"] == 2
        assert all(
            decode_state(s["controller_state"])[0].ndim == 2
            for s in bundle.snapshots
        )
        with pytest.raises(ValueError, match="bundle records shards 2"):
            replay_bundle(bundle)
        with pytest.raises(SystemExit) as exit_info:
            main(["incident", "replay", str(DENSE_LAYOUT_BUNDLE)])
        message = str(exit_info.value.code)
        assert message.startswith("incident: ")
        assert "shards" in message and "retired" in message
        assert "Traceback" not in message + capsys.readouterr().err

    def test_dense_layout_bundle_is_refused_by_name(self, tmp_path):
        def unshard(record):
            if record["type"] == "incident_start":
                record["controller"]["aggregation"]["shards"] = 1

        dense = tmp_path / "dense.jsonl"
        _rewrite_bundle(DENSE_LAYOUT_BUNDLE, dense, unshard)
        with pytest.raises(ValueError, match=r"dense \(I, J\) matrix"):
            replay_bundle(dense)

    def test_older_release_bundle_reproduces_bit_for_bit(self, tmp_path):
        older = tmp_path / "older.jsonl"
        _rewrite_bundle(self._bundle(tmp_path), older, _as_older_release)
        bundle = read_bundle(older)
        assert all(
            len(decode_state(s["controller_state"])) == 6 for s in bundle.snapshots
        )
        report = replay_bundle(bundle)
        assert report.ok, report.render()

    def test_bundles_record_no_retired_aggregation_keys(self, tmp_path):
        bundle = read_bundle(self._bundle(tmp_path))
        assert set(bundle.controller["aggregation"]) == {"lambda_buckets"}

    def test_proportional_slicing_bundle_is_refused_by_name(self, tmp_path, capsys):
        def to_proportional(record):
            _as_older_release(record)
            if record["type"] == "incident_start":
                record["controller"]["aggregation"]["shard_slicing"] = "proportional"

        older = tmp_path / "proportional.jsonl"
        _rewrite_bundle(self._bundle(tmp_path), older, to_proportional)
        with pytest.raises(ValueError, match="shard_slicing 'proportional'"):
            replay_bundle(older)
        with pytest.raises(SystemExit) as exit_info:
            main(["incident", "replay", str(older)])
        message = str(exit_info.value.code)
        assert message.startswith("incident: ")
        assert "'proportional'" in message and "retired" in message
        assert "Traceback" not in message + capsys.readouterr().err

    def test_unknown_aggregation_key_is_refused_by_name(self, tmp_path, capsys):
        def add_knob(record):
            if record["type"] == "incident_start":
                record["controller"]["aggregation"]["future_knob"] = 3

        future = tmp_path / "future.jsonl"
        _rewrite_bundle(self._bundle(tmp_path), future, add_knob)
        with pytest.raises(ValueError, match="future_knob"):
            replay_bundle(future)
        with pytest.raises(SystemExit) as exit_info:
            main(["incident", "replay", str(future)])
        assert str(exit_info.value.code).startswith("incident: ")
        assert "future_knob" in str(exit_info.value.code)

    def test_resume_from_a_mid_run_checkpoint_matches_the_uninterrupted_run(self):
        system, observations, _ = _tiny_setup(aggregation=self.AGGREGATION)

        def controller():
            return _tiny_setup(aggregation=self.AGGREGATION)[2]

        reference = simulate(controller(), observations, system)
        first = simulate(controller(), observations, system, max_slots=2)
        checkpoint = decode_state(
            json.loads(json.dumps(encode_state(first.checkpoint.controller_state)))
        )
        resumed = simulate(
            controller(),
            observations[2:],
            system,
            resume_from=replace(first.checkpoint, controller_state=checkpoint),
        )
        assert resumed.schedule.x.tobytes() == reference.schedule.x[2:].tobytes()
        assert resumed.total_cost == reference.total_cost
