"""Streaming <-> batch equivalence for EVERY shipped algorithm.

The batch ``run()`` of each algorithm is a thin adapter over the streaming
spine, so its schedule must be *bit-identical* to driving the algorithm's
controller form through :func:`simulate` by hand. This pins the tentpole
guarantee: there is exactly one execution path.
"""

import numpy as np
import pytest

from repro.baselines import (
    OfflineOptimal,
    OnlineGreedy,
    OperOpt,
    PerfOpt,
    RecedingHorizon,
    StatOpt,
)
from repro.core.costs import cost_breakdown
from repro.core.regularization import OnlineRegularizedAllocator
from repro.simulation.observations import (
    OnlineController,
    SystemDescription,
    iter_observations,
)
from repro.simulation.spine import controller_for, simulate
from repro.simulation.streaming import replay

ALGORITHM_FACTORIES = {
    "online-approx": OnlineRegularizedAllocator,
    "online-greedy": OnlineGreedy,
    "perf-opt": PerfOpt,
    "oper-opt": OperOpt,
    "stat-opt": StatOpt,
    "lookahead-2": lambda: RecedingHorizon(window=2),
    "offline-opt": OfflineOptimal,
}


@pytest.mark.parametrize("name", sorted(ALGORITHM_FACTORIES))
def test_batch_equals_streamed(name, small_instance):
    """run() and the controller form produce bit-identical schedules."""
    algorithm = ALGORITHM_FACTORIES[name]()
    batch = algorithm.run(small_instance)

    controller = controller_for(ALGORITHM_FACTORIES[name](), small_instance)
    assert isinstance(controller, OnlineController)
    system = SystemDescription.from_instance(small_instance)
    streamed = simulate(controller, iter_observations(small_instance), system)

    assert streamed.schedule is not None
    np.testing.assert_array_equal(batch.x, streamed.schedule.x)
    # Incremental accounting agrees with scoring the batch schedule post hoc.
    assert streamed.breakdown.total == pytest.approx(
        cost_breakdown(batch, small_instance).total, rel=1e-9
    )
    assert streamed.feasibility.worst() < 1e-5


@pytest.mark.parametrize("name", sorted(ALGORITHM_FACTORIES))
def test_replay_equals_batch(name, small_instance):
    """The legacy replay() entry point rides the same spine."""
    algorithm = ALGORITHM_FACTORIES[name]()
    controller = controller_for(algorithm, small_instance)
    replayed = replay(controller, small_instance)
    np.testing.assert_array_equal(
        replayed.x, ALGORITHM_FACTORIES[name]().run(small_instance).x
    )


def test_causal_controllers_need_no_instance(small_instance):
    """Causal algorithms build controllers from the system description alone."""
    system = SystemDescription.from_instance(small_instance)
    for factory in (OnlineRegularizedAllocator, OnlineGreedy, PerfOpt, StatOpt):
        controller = controller_for(factory(), system=system)
        assert isinstance(controller, OnlineController)


def test_privileged_controllers_require_instance(small_instance):
    """Lookahead and offline-opt legitimately need the instance (the future)."""
    system = SystemDescription.from_instance(small_instance)
    for factory in (OfflineOptimal, lambda: RecedingHorizon(window=2)):
        algorithm = factory()
        assert not hasattr(algorithm, "as_controller")
        with pytest.raises(ValueError):
            controller_for(algorithm, system=system)


def test_regularized_solver_diagnostics_survive_streaming(tiny_instance):
    """last_solves keeps feeding dual-price extraction on streamed runs."""
    algorithm = OnlineRegularizedAllocator()
    system = SystemDescription.from_instance(tiny_instance)
    simulate(
        algorithm.as_controller(system), iter_observations(tiny_instance), system
    )
    assert len(algorithm.last_solves) == tiny_instance.num_slots
    assert algorithm.total_solver_iterations > 0
