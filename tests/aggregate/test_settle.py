"""The aggregated controller's deferred phase: the error after the decision.

:meth:`AggregatedController.observe` leaves the slot's disaggregation
error pending and :meth:`AggregatedController.settle` evaluates it. These
tests pin that the deferral changes no value: the error equals the
single-phase evaluation (``settle`` inside ``observe``) bit for bit, the
``aggregate.slot`` event carries the report's value, and no slot is
dropped whichever call settles it.
"""

import numpy as np

from repro.aggregate import AggregatedController, AggregationConfig
from repro.core.regularization import OnlineRegularizedAllocator
from repro.simulation.observations import SystemDescription, iter_observations
from repro.simulation.spine import SlotStepper, simulate
from repro.telemetry import MetricsRegistry, telemetry_session
from tests.aggregate.test_edge_cases import small_instance


class _OnePhase(AggregatedController):
    """The single-phase order: the error is evaluated inside ``observe``."""

    def observe(self, observation):
        decision = super().observe(observation)
        self.settle()
        return decision


def _setup(num_users: int = 40, num_slots: int = 5):
    instance = small_instance(num_users=num_users, num_slots=num_slots, seed=11)
    return SystemDescription.from_instance(instance), list(
        iter_observations(instance)
    )


def _controller(cls, system):
    return cls(
        system=system,
        algorithm=OnlineRegularizedAllocator(),
        config=AggregationConfig(lambda_buckets=3, shards=2),
    )


def _events(registry, kind):
    return [e for e in registry.events if e["type"] == kind]


def test_deferred_error_equals_the_single_phase_error_bit_for_bit():
    system, observations = _setup()
    one_phase = _controller(_OnePhase, system)
    simulate(one_phase, observations, system, keep_schedule=False)

    registry = MetricsRegistry()
    with telemetry_session(registry):
        two_phase = _controller(AggregatedController, system)
        stepper = SlotStepper(two_phase, system, keep_schedule=False)
        for observation in observations:
            stepper.step(observation)
            assert two_phase.last_reports[-1].disagg_error is None
        stepper.finish()

    expected = [r.disagg_error for r in one_phase.last_reports]
    assert all(error is not None and error > 0.0 for error in expected)
    assert [r.disagg_error for r in two_phase.last_reports] == expected
    assert [e["disagg_error"] for e in _events(registry, "aggregate.slot")] == expected
    assert two_phase.last_reports == one_phase.last_reports


def test_observe_and_reset_settle_a_pending_slot():
    system, observations = _setup(num_slots=3)
    registry = MetricsRegistry()
    with telemetry_session(registry):
        controller = _controller(AggregatedController, system)
        controller.observe(observations[0])
        assert _events(registry, "aggregate.slot") == []
        controller.observe(observations[1])
        assert [e["slot"] for e in _events(registry, "aggregate.slot")] == [0]
        controller.reset()
        assert [e["slot"] for e in _events(registry, "aggregate.slot")] == [0, 1]
        controller.settle()  # nothing pending: a no-op
    assert len(_events(registry, "aggregate.slot")) == 2
    assert registry.counter("aggregate.slots").value == 2


def test_a_trimmed_report_list_still_records_the_slot():
    # A long-lived session trims last_reports; settle must still record
    # the slot even when its report is no longer the list's last entry.
    system, observations = _setup(num_slots=1)
    registry = MetricsRegistry()
    with telemetry_session(registry):
        controller = _controller(AggregatedController, system)
        controller.observe(observations[0])
        controller.last_reports.clear()
        controller.settle()
    (event,) = _events(registry, "aggregate.slot")
    assert np.isfinite(event["disagg_error"])
    assert controller.last_reports == []
