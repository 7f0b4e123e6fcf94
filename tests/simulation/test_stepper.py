"""SlotStepper: the extracted per-slot body must equal the batch loop.

``simulate()`` is now a thin driver over :class:`SlotStepper`; these
tests pin the refactor's contract — driving the stepper one observation
at a time (the live service's mode) produces bit-identical numbers to
the batch call, and lifecycle edges (empty finish, mid-stream snapshots)
behave.
"""

import numpy as np
import pytest

from repro.core.regularization import OnlineRegularizedAllocator
from repro.simulation.observations import (
    SystemDescription,
    observations_from_instance,
)
from repro.simulation.spine import SlotStepper, simulate
from tests.conftest import make_tiny_instance


def _setup(seed: int = 0):
    instance = make_tiny_instance(seed=seed)
    system = SystemDescription.from_instance(instance)
    observations = observations_from_instance(instance)
    return system, observations


def _controller(system):
    return OnlineRegularizedAllocator().as_controller(system)


class TestStepperEqualsSimulate:
    def test_step_by_step_is_bit_identical_to_batch(self):
        system, observations = _setup()
        batch = simulate(_controller(system), observations, system)

        stepper = SlotStepper(_controller(system), system)
        for observation in observations:
            stepper.step(observation)
        streamed = stepper.finish()

        assert streamed.total_cost == batch.total_cost
        assert np.array_equal(
            streamed.breakdown.operation, batch.breakdown.operation
        )
        assert streamed.feasibility == batch.feasibility
        assert batch.schedule is not None and streamed.schedule is not None
        assert np.array_equal(streamed.schedule.x, batch.schedule.x)

    def test_memory_bounded_mode_drops_the_schedule(self):
        system, observations = _setup(seed=1)
        stepper = SlotStepper(_controller(system), system, keep_schedule=False)
        for observation in observations:
            stepper.step(observation)
        result = stepper.finish()
        assert result.schedule is None
        assert result.slots == len(observations)

    def test_checkpoint_resume_matches_uninterrupted(self):
        system, observations = _setup(seed=2)
        batch = simulate(_controller(system), observations, system)

        first = SlotStepper(_controller(system), system)
        for observation in observations[:2]:
            first.step(observation)
        second = SlotStepper(
            _controller(system), system, resume_from=first.checkpoint()
        )
        for observation in observations[2:]:
            second.step(observation)
        resumed = second.finish()
        assert resumed.total_slots == len(observations)
        assert resumed.total_cost == pytest.approx(batch.total_cost, rel=1e-9)


class TestStepperLifecycle:
    def test_finish_requires_at_least_one_slot(self):
        system, _ = _setup()
        stepper = SlotStepper(_controller(system), system)
        with pytest.raises(ValueError, match="at least one observation"):
            stepper.finish()

    def test_result_is_a_live_snapshot(self):
        system, observations = _setup()
        stepper = SlotStepper(_controller(system), system)
        stepper.step(observations[0])
        mid = stepper.result()
        assert mid.slots == 1
        stepper.step(observations[1])
        assert stepper.result().slots == 2
        assert stepper.result().total_cost > mid.total_cost


def _untimed(value):
    """``value`` without its timing fields (keys ending in ``_ms``)."""
    if isinstance(value, dict):
        return {
            key: _untimed(item)
            for key, item in value.items()
            if not key.endswith("_ms")
        }
    if isinstance(value, list):
        return [_untimed(item) for item in value]
    return value


class TestTwoPhaseSlot:
    @pytest.mark.parametrize("aggregated", [False, True], ids=["direct", "aggregated"])
    def test_served_stream_records_equal_batch_records(self, aggregated):
        from repro.aggregate import AggregationConfig
        from repro.service import AllocationSession, ServiceConfig
        from repro.service.protocol import observation_to_update
        from repro.telemetry import MetricsRegistry, telemetry_session

        system, observations = _setup(seed=3)
        aggregation = AggregationConfig() if aggregated else None
        config = ServiceConfig(aggregation=aggregation)
        batch_registry = MetricsRegistry()
        with telemetry_session(batch_registry):
            simulate(
                OnlineRegularizedAllocator(
                    eps1=config.eps1,
                    eps2=config.eps2,
                    tol=config.tol,
                    aggregation=aggregation,
                ).as_controller(system),
                observations,
                system,
                keep_schedule=False,
            )
        served_registry = MetricsRegistry()
        with telemetry_session(served_registry):
            session = AllocationSession(system, config)
            for observation in observations:
                reply = session.handle(observation_to_update(observation))
                assert reply["type"] == "slot_result"
                session.settle()

        served = [
            _untimed(event)
            for event in served_registry.events
            if not event["type"].startswith("service.")
        ]
        batch = [_untimed(event) for event in batch_registry.events]
        assert [event["type"] for event in served] == [
            event["type"] for event in batch
        ]
        assert served == batch
        kinds = ["aggregate.slot", "slot"] if aggregated else ["slot"]
        slot_records = [e["type"] for e in batch if e["type"] in kinds]
        assert slot_records == kinds * len(observations)

    def test_step_defers_records_until_settle(self):
        from repro.telemetry import MetricsRegistry, telemetry_session

        system, observations = _setup()
        registry = MetricsRegistry()

        def settled():
            return [e["slot"] for e in registry.events if e["type"] == "slot"]

        with telemetry_session(registry):
            stepper = SlotStepper(_controller(system), system)
            stepper.step(observations[0])
            assert settled() == []
            stepper.settle()
            stepper.settle()  # idempotent
            assert settled() == [0]
            stepper.step(observations[1])
            stepper.step(observations[2])  # settles slot 1 first
            assert settled() == [0, 1]
            stepper.finish()
        assert settled() == [0, 1, 2]
