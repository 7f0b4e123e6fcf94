"""Tests for the streaming (slot-by-slot) online interface."""

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
)


class TestSystemDescription:
    def test_from_instance(self, tiny_instance):
        system = SystemDescription.from_instance(tiny_instance)
        assert system.num_clouds == tiny_instance.num_clouds
        assert system.num_users == tiny_instance.num_users
        assert np.array_equal(system.capacities, tiny_instance.capacities)


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
