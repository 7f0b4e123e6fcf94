"""The streaming spine: checkpoint/resume, adapters, and memory-bounded mode."""

import tracemalloc

import numpy as np
import pytest

from repro.baselines import OnlineGreedy
from repro.core.regularization import OnlineRegularizedAllocator
from repro.pricing.bandwidth import MigrationPrices
from repro.simulation.observations import (
    SlotObservation,
    SystemDescription,
    iter_observations,
)
from repro.simulation.spine import (
    PerSlotController,
    ScheduleController,
    controller_for,
    simulate,
)


class TestSimulateBasics:
    def test_empty_stream_raises(self, tiny_instance):
        controller = controller_for(OnlineGreedy(), tiny_instance)
        system = SystemDescription.from_instance(tiny_instance)
        with pytest.raises(ValueError, match="at least one observation"):
            simulate(controller, [], system)

    def test_max_slots_leaves_stream_unconsumed(self, tiny_instance):
        system = SystemDescription.from_instance(tiny_instance)
        controller = controller_for(OnlineGreedy(), tiny_instance, system)
        stream = iter_observations(tiny_instance)
        result = simulate(controller, stream, system, max_slots=2)
        assert result.slots == result.total_slots == 2
        assert next(stream).slot == 2  # slots 2+ were never pulled

    def test_fallback_controller_replays_batch_schedule(self, tiny_instance):
        class BatchOnly:
            name = "batch-only"

            def run(self, instance):
                return OnlineGreedy().run(instance)

        controller = controller_for(BatchOnly(), tiny_instance)
        assert isinstance(controller, ScheduleController)
        system = SystemDescription.from_instance(tiny_instance)
        result = simulate(controller, iter_observations(tiny_instance), system)
        np.testing.assert_array_equal(
            result.schedule.x, OnlineGreedy().run(tiny_instance).x
        )

    def test_controller_for_needs_something(self):
        with pytest.raises(ValueError):
            controller_for(OnlineGreedy())


class TestCheckpointResume:
    @pytest.mark.parametrize(
        "factory", [OnlineGreedy, OnlineRegularizedAllocator], ids=["greedy", "approx"]
    )
    def test_interrupted_run_resumes_exactly(self, tiny_instance, factory):
        system = SystemDescription.from_instance(tiny_instance)
        reference = simulate(
            controller_for(factory(), tiny_instance, system),
            iter_observations(tiny_instance),
            system,
        )

        controller = controller_for(factory(), tiny_instance, system)
        observations = list(iter_observations(tiny_instance))
        first = simulate(controller, observations, system, max_slots=2)
        assert first.total_slots == 2

        second = simulate(
            controller,
            observations[2:],
            system,
            resume_from=first.checkpoint,
        )
        assert second.total_slots == tiny_instance.num_slots
        assert second.slots == tiny_instance.num_slots - 2
        # The resumed breakdown covers the WHOLE trajectory and matches the
        # uninterrupted run exactly.
        np.testing.assert_array_equal(
            second.breakdown.total_per_slot, reference.breakdown.total_per_slot
        )
        # The resumed leg's schedule holds the post-checkpoint slots.
        np.testing.assert_array_equal(second.schedule.x, reference.schedule.x[2:])
        assert second.feasibility.worst() == reference.feasibility.worst()

    def test_resume_needs_stateful_controller(self, tiny_instance):
        class Stateless:
            def observe(self, observation):
                return np.zeros((3, 4))

            def reset(self):
                pass

        system = SystemDescription.from_instance(tiny_instance)
        result = simulate(
            ScheduleController(plan=np.zeros((5, 3, 4))),
            iter_observations(tiny_instance),
            system,
        )
        with pytest.raises(ValueError, match="set_state"):
            simulate(
                Stateless(),
                iter_observations(tiny_instance),
                system,
                resume_from=result.checkpoint,
            )


class TestAdapters:
    def test_schedule_controller_exhaustion(self, tiny_instance):
        system = SystemDescription.from_instance(tiny_instance)
        controller = ScheduleController(plan=np.zeros((2, 3, 4)))
        with pytest.raises(ValueError, match="plan exhausted"):
            simulate(controller, iter_observations(tiny_instance), system)

    def test_schedule_controller_validates_shape(self):
        with pytest.raises(ValueError):
            ScheduleController(plan=np.zeros((3, 4)))


class TestMemoryBoundedMode:
    def test_long_horizon_without_materializing_schedule(self):
        """A keep_schedule=False run completes a horizon whose full (T, I, J)
        schedule would dwarf the spine's actual peak allocation."""
        num_slots, num_clouds, num_users = 6000, 20, 60
        system = SystemDescription(
            workloads=np.ones(num_users),
            capacities=np.full(num_clouds, float(num_users)),
            reconfig_prices=np.ones(num_clouds),
            migration_prices=MigrationPrices(
                out=np.ones(num_clouds), into=np.ones(num_clouds)
            ),
            inter_cloud_delay=np.zeros((num_clouds, num_clouds)),
        )
        allocation = np.zeros((num_clouds, num_users))
        allocation[0] = 1.0  # everyone at cloud 0: feasible, cheap to emit
        controller = PerSlotController(
            system=system, solve=lambda observation, x_prev: allocation
        )

        op_prices = np.ones(num_clouds)
        attachment = np.zeros(num_users, dtype=int)
        access_delay = np.zeros(num_users)

        def stream():
            for t in range(num_slots):
                yield SlotObservation(
                    slot=t,
                    op_prices=op_prices,
                    attachment=attachment,
                    access_delay=access_delay,
                )

        hypothetical_schedule_bytes = num_slots * num_clouds * num_users * 8
        tracemalloc.start()
        try:
            result = simulate(controller, stream(), system, keep_schedule=False)
            _, peak_bytes = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()

        assert result.schedule is None
        assert result.total_slots == num_slots
        assert result.breakdown.operation.shape == (num_slots,)
        assert result.feasibility.worst() == 0.0
        # The whole point: the horizon was processed in a fraction of what
        # the materialized schedule alone would have needed.
        assert peak_bytes * 10 < hypothetical_schedule_bytes, (
            f"peak {peak_bytes} bytes vs hypothetical schedule "
            f"{hypothetical_schedule_bytes} bytes"
        )

    def test_keep_schedule_false_matches_kept_costs(self, tiny_instance):
        system = SystemDescription.from_instance(tiny_instance)
        kept = simulate(
            controller_for(OnlineGreedy(), tiny_instance, system),
            iter_observations(tiny_instance),
            system,
        )
        dropped = simulate(
            controller_for(OnlineGreedy(), tiny_instance, system),
            iter_observations(tiny_instance),
            system,
            keep_schedule=False,
        )
        assert dropped.schedule is None
        np.testing.assert_array_equal(
            dropped.breakdown.total_per_slot, kept.breakdown.total_per_slot
        )
        assert dropped.feasibility.worst() == kept.feasibility.worst()
