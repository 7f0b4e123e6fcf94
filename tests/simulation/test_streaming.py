"""Tests for the streaming (slot-by-slot) online interface."""

from dataclasses import fields, replace

import numpy as np
import pytest

from repro.baselines.greedy import GreedyController, OnlineGreedy
from repro.core.costs import total_cost
from repro.core.regularization import OnlineRegularizedAllocator
from repro.simulation.streaming import (
    RegularizedController,
    SlotObservation,
    SystemDescription,
    observations_from_instance,
    replay,
    single_slot_instance,
)


class TestSystemDescription:
    def test_from_instance(self, tiny_instance):
        system = SystemDescription.from_instance(tiny_instance)
        assert system.num_clouds == tiny_instance.num_clouds
        assert system.num_users == tiny_instance.num_users
        assert np.array_equal(system.capacities, tiny_instance.capacities)


class TestSingleSlotInstance:
    def test_matches_the_full_instance_at_each_slot(self, tiny_instance):
        system = SystemDescription.from_instance(tiny_instance)
        for t, obs in enumerate(observations_from_instance(tiny_instance)):
            wrapped = single_slot_instance(system, obs)
            full = tiny_instance.slice_slots(t, t + 1)
            for field in fields(full):
                got, want = getattr(wrapped, field.name), getattr(full, field.name)
                if isinstance(want, np.ndarray):
                    assert np.array_equal(got, want), field.name
                else:
                    assert got == want, field.name

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"op_prices": [-1.0, 1.0, 1.0]}, "operation prices must be nonnegative"),
            ({"attachment": [0, 1, 2, 3]}, "attachment entries must index a cloud"),
            ({"access_delay": [0.0, np.nan, 0.0, 0.0]}, "access_delay must be finite"),
        ],
    )
    def test_checks_every_slot_of_a_checked_system(
        self, tiny_instance, change, message
    ):
        system = SystemDescription.from_instance(tiny_instance)
        good, *_ = observations_from_instance(tiny_instance)
        single_slot_instance(system, good)
        bad = replace(good, **{k: np.asarray(v) for k, v in change.items()})
        with pytest.raises(ValueError, match=message):
            single_slot_instance(system, bad)

    def test_refuses_a_bad_system_on_every_slot(self, tiny_instance):
        delay = np.array(tiny_instance.inter_cloud_delay, dtype=float)
        delay[0, 1] += 1.0
        system = replace(
            SystemDescription.from_instance(tiny_instance), inter_cloud_delay=delay
        )
        for obs in observations_from_instance(tiny_instance)[:2]:
            with pytest.raises(ValueError, match="symmetric"):
                single_slot_instance(system, obs)


class TestObservations:
    def test_stream_covers_instance(self, tiny_instance):
        observations = observations_from_instance(tiny_instance)
        assert len(observations) == tiny_instance.num_slots
        for t, obs in enumerate(observations):
            assert obs.slot == t
            assert np.array_equal(obs.op_prices, tiny_instance.op_prices[t])
            assert np.array_equal(obs.attachment, tiny_instance.attachment[t])

    def test_observation_validation(self):
        with pytest.raises(ValueError):
            SlotObservation(
                slot=0,
                op_prices=np.ones((2, 2)),
                attachment=np.zeros(2, dtype=int),
                access_delay=np.zeros(2),
            )
        with pytest.raises(ValueError):
            SlotObservation(
                slot=0,
                op_prices=np.ones(2),
                attachment=np.zeros(2, dtype=int),
                access_delay=np.zeros(3),
            )


class TestReplayEquivalence:
    def test_regularized_controller_matches_batch(self, tiny_instance):
        """A controller that only ever sees one slot reproduces the batch
        algorithm — evidence the batch implementation is genuinely online."""
        system = SystemDescription.from_instance(tiny_instance)
        streamed = replay(RegularizedController(system), tiny_instance)
        batch = OnlineRegularizedAllocator().run(tiny_instance)
        assert np.allclose(streamed.x, batch.x, atol=1e-4)
        assert total_cost(streamed, tiny_instance) == pytest.approx(
            total_cost(batch, tiny_instance), rel=1e-5
        )

    def test_greedy_controller_matches_batch(self, tiny_instance):
        system = SystemDescription.from_instance(tiny_instance)
        streamed = replay(GreedyController(system), tiny_instance)
        batch = OnlineGreedy().run(tiny_instance)
        assert np.allclose(streamed.x, batch.x, atol=1e-6)

    def test_replay_resets_state(self, tiny_instance):
        system = SystemDescription.from_instance(tiny_instance)
        controller = RegularizedController(system)
        first = replay(controller, tiny_instance)
        second = replay(controller, tiny_instance)  # must reset, not resume
        assert np.allclose(first.x, second.x, atol=1e-6)

    def test_streamed_schedule_feasible(self, tiny_instance):
        system = SystemDescription.from_instance(tiny_instance)
        schedule = replay(RegularizedController(system), tiny_instance)
        schedule.require_feasible(tiny_instance, tol=1e-5)

    def test_manual_observation_sequence(self, tiny_instance):
        # Drive the controller by hand, out of band of any instance.
        system = SystemDescription.from_instance(tiny_instance)
        controller = GreedyController(system)
        obs = observations_from_instance(tiny_instance)[0]
        x = controller.observe(obs)
        assert x.shape == (tiny_instance.num_clouds, tiny_instance.num_users)
        assert np.all(x.sum(axis=0) >= np.asarray(tiny_instance.workloads) - 1e-6)
