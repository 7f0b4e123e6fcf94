"""Compatibility facade for the streaming (slot-by-slot) interface.

The streaming layer grew into a package of focused modules — this module
re-exports the original names so existing imports keep working:

* observation model → :mod:`repro.simulation.observations`
* the execution loop → :mod:`repro.simulation.spine` (:func:`simulate`)
* the paper algorithm's controller → :mod:`repro.simulation.controllers`

:func:`replay` remains the one-call way to feed a full instance through a
controller; it now simply drives the shared spine.
"""

from __future__ import annotations

from ..core.allocation import AllocationSchedule
from ..core.problem import ProblemInstance
from .controllers import RegularizedController
from .observations import (
    OnlineController,
    SlotObservation,
    SystemDescription,
    observations_from_instance,
    single_slot_instance,
)
from .spine import simulate

__all__ = [
    "OnlineController",
    "RegularizedController",
    "SlotObservation",
    "SystemDescription",
    "observations_from_instance",
    "replay",
    "single_slot_instance",
]


def replay(
    controller: OnlineController, instance: ProblemInstance
) -> AllocationSchedule:
    """Feed an instance through a controller slot by slot.

    The controller never sees more than one slot at a time; the returned
    schedule can be scored by the usual cost model. This is a thin wrapper
    over :func:`repro.simulation.spine.simulate`, which also exposes
    incremental cost accounting and checkpoint/resume.
    """
    system = SystemDescription.from_instance(instance)
    result = simulate(controller, observations_from_instance(instance), system)
    assert result.schedule is not None
    return result.schedule

