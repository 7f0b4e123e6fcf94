"""Aggregated-controller snapshots: every layout restores through one path.

``get_state`` is ``(x*_{t-1}, slots seen, min op price, capacity duals)``
with ``x*_{t-1}`` factored. Three-element snapshots (no duals),
six-element ones (two retired cache entries before the duals) and a dense
(I, J) ``x*_{t-1}`` come from older releases and must still restore.
"""

import numpy as np

from repro.aggregate import AggregatedController, AggregationConfig
from repro.core.regularization import OnlineRegularizedAllocator
from repro.simulation.observations import (
    SystemDescription,
    observations_from_instance,
)
from tests.conftest import make_tiny_instance


def _setup(seed: int, **config_overrides):
    instance = make_tiny_instance(seed=seed)
    system = SystemDescription.from_instance(instance)
    config = AggregationConfig(**config_overrides)

    def controller():
        return AggregatedController(
            system=system, algorithm=OnlineRegularizedAllocator(), config=config
        )

    return observations_from_instance(instance), controller


def _resumed_slot(make, observations, state) -> np.ndarray:
    restored = make()
    restored.set_state(state)
    return np.asarray(restored.observe(observations[2]))


class TestCheckpointRoundTrip:
    def test_four_tuple_state_carries_the_capacity_duals(self):
        observations, make = _setup(seed=3, shards=2)
        controller = make()
        controller.observe(observations[0])
        controller.observe(observations[1])
        state = controller.get_state()
        assert len(state) == 4
        assert state[3] is not None

        resumed = _resumed_slot(make, observations, state)
        expected = np.asarray(controller.observe(observations[2]))
        assert resumed.tobytes() == expected.tobytes()

    def test_legacy_three_tuple_state_restores_without_duals(self):
        observations, make = _setup(seed=3)
        controller = make()
        controller.observe(observations[0])
        controller.observe(observations[1])
        restored = make()
        restored.set_state(controller.get_state()[:3])
        assert restored.get_state()[3] is None
        # One shard takes the whole capacity, so the duals cannot matter.
        resumed = np.asarray(restored.observe(observations[2]))
        expected = np.asarray(controller.observe(observations[2]))
        assert resumed.tobytes() == expected.tobytes()

    def test_six_tuple_state_restores_its_last_element_as_the_duals(self):
        observations, make = _setup(seed=3, shards=2)
        controller = make()
        controller.observe(observations[0])
        controller.observe(observations[1])
        x_prev, slots_seen, min_op_price, duals = controller.get_state()
        retired = (np.ones((3, 2)), (b"\x01", b"\x02", b"\x03"))
        state = (x_prev, slots_seen, min_op_price, *retired, duals)

        restored = make()
        restored.set_state(state)
        assert np.array_equal(restored.get_state()[3], duals)
        resumed = np.asarray(restored.observe(observations[2]))
        expected = np.asarray(controller.observe(observations[2]))
        assert resumed.tobytes() == expected.tobytes()

    def test_dense_x_prev_restores_as_the_trivial_factorization(self):
        observations, make = _setup(seed=3, shards=2)
        controller = make()
        controller.observe(observations[0])
        decision = controller.observe(observations[1])
        x_prev, slots_seen, min_op_price, duals = controller.get_state()
        assert isinstance(x_prev, tuple)

        restored = make()
        restored.set_state((np.asarray(decision), slots_seen, min_op_price, duals))
        assert restored.get_state()[0].tobytes() == np.asarray(decision).tobytes()
        resumed = np.asarray(restored.observe(observations[2]))
        expected = np.asarray(controller.observe(observations[2]))
        # The dense state folds user by user, the factored one pair by
        # pair: the same reduced P2 up to summation order.
        np.testing.assert_allclose(resumed, expected, rtol=1e-9, atol=1e-12)
        assert (
            restored.last_reports[-1].iterations
            == controller.last_reports[-1].iterations
        )
