"""Observation stream: what an online controller is allowed to see.

The batch engine hands algorithms the whole :class:`ProblemInstance`, which
is convenient but lets a buggy "online" algorithm peek at the future. This
module enforces online-ness structurally: a :class:`SlotObservation` carries
exactly what the operator observes at the *start* of slot t — the current
operation prices, user attachments and access delays — plus the
time-invariant :class:`SystemDescription` known upfront. A controller maps
observations to allocations; :func:`repro.simulation.spine.simulate` drives
a controller over an observation stream.

This module is a dependency leaf (it imports only the core problem model)
so that both the algorithm layer (:mod:`repro.baselines`,
:mod:`repro.core.regularization`) and the execution layer
(:mod:`repro.simulation.spine`) can build on it without import cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Protocol, runtime_checkable

import numpy as np

from ..core.problem import CostWeights, ProblemInstance
from ..pricing.bandwidth import MigrationPrices


@dataclass(frozen=True)
class SystemDescription:
    """The time-invariant part of the system, known to the operator upfront."""

    workloads: np.ndarray
    capacities: np.ndarray
    reconfig_prices: np.ndarray
    migration_prices: MigrationPrices
    inter_cloud_delay: np.ndarray
    weights: CostWeights = field(default_factory=CostWeights)

    @classmethod
    def from_instance(cls, instance: ProblemInstance) -> "SystemDescription":
        """Extract the time-invariant description of a problem instance."""
        return cls(
            workloads=np.asarray(instance.workloads, dtype=float),
            capacities=np.asarray(instance.capacities, dtype=float),
            reconfig_prices=np.asarray(instance.reconfig_prices, dtype=float),
            migration_prices=instance.migration_prices,
            inter_cloud_delay=np.asarray(instance.inter_cloud_delay, dtype=float),
            weights=instance.weights,
        )

    @property
    def num_clouds(self) -> int:
        """I — the number of edge clouds."""
        return int(np.asarray(self.capacities).size)

    @property
    def num_users(self) -> int:
        """J — the number of users."""
        return int(np.asarray(self.workloads).size)

    def zero_allocation(self) -> np.ndarray:
        """The paper's all-zero slot-0 baseline x_{i,j,0} = 0, shape (I, J)."""
        return np.zeros((self.num_clouds, self.num_users))


@dataclass(frozen=True)
class SlotObservation:
    """What the operator sees at the start of one time slot.

    Attributes:
        slot: the slot index t (informational).
        op_prices: (I,) operation prices a_{i,t} for this slot.
        attachment: (J,) current user attachments l_{j,t}.
        access_delay: (J,) current access delays d(j, l_{j,t}).
    """

    slot: int
    op_prices: np.ndarray
    attachment: np.ndarray
    access_delay: np.ndarray

    def __post_init__(self) -> None:
        if np.asarray(self.op_prices).ndim != 1:
            raise ValueError("op_prices must be a (I,) vector")
        if np.asarray(self.attachment).shape != np.asarray(self.access_delay).shape:
            raise ValueError("attachment and access_delay must be index-aligned")


@runtime_checkable
class OnlineController(Protocol):
    """A causal controller: observation in, allocation out, state inside.

    Optional methods the spine uses when present:

    * ``get_state()`` / ``set_state(state)`` — a picklable snapshot of the
      internal state, for :class:`repro.simulation.spine.SimulationCheckpoint`
      and resumed runs;
    * ``settle()`` — the last slot's observation-only work, which no
      decision reads (the aggregated controller's disaggregation error and
      its records). :meth:`repro.simulation.spine.SlotStepper.settle` calls
      it after the slot's decision path, so the service can reply first.
      It must be idempotent. Direct-path controllers need none.
    """

    def observe(self, observation: SlotObservation) -> np.ndarray:
        """Decide the (I, J) allocation for the observed slot.

        A cohort controller may return it as a
        :class:`repro.aggregate.cohorts.FactoredAllocation` instead; the
        spine accounts either form.
        """
        ...

    def reset(self) -> None:
        """Forget all state (start a new run)."""
        ...


def single_slot_instance(
    system: SystemDescription, observation: SlotObservation
) -> ProblemInstance:
    """Wrap one observation as a one-slot :class:`ProblemInstance`.

    The per-slot arrays are the observation's arrays with a length-one time
    axis prepended, so any slot-indexed computation on the wrapped instance
    (static prices, subproblem construction, per-slot LPs) produces
    bit-identical numbers to the same computation on the full instance at
    the observed slot.
    """
    return ProblemInstance(
        workloads=system.workloads,
        capacities=system.capacities,
        op_prices=np.asarray(observation.op_prices, dtype=float)[None, :],
        reconfig_prices=system.reconfig_prices,
        migration_prices=system.migration_prices,
        inter_cloud_delay=system.inter_cloud_delay,
        attachment=np.asarray(observation.attachment)[None, :],
        access_delay=np.asarray(observation.access_delay, dtype=float)[None, :],
        weights=system.weights,
    )


def iter_observations(instance: ProblemInstance) -> Iterator[SlotObservation]:
    """Lazily yield an instance's per-slot observation stream.

    Unlike :func:`observations_from_instance` this never materializes the
    whole list, which matters for the memory-bounded execution mode
    (``simulate(..., keep_schedule=False)``) on very long horizons.
    """
    op_prices = np.asarray(instance.op_prices, dtype=float)
    attachment = np.asarray(instance.attachment)
    access_delay = np.asarray(instance.access_delay, dtype=float)
    for t in range(instance.num_slots):
        yield SlotObservation(
            slot=t,
            op_prices=op_prices[t],
            attachment=attachment[t],
            access_delay=access_delay[t],
        )


def observations_from_instance(instance: ProblemInstance) -> list[SlotObservation]:
    """Decompose an instance into its per-slot observation stream."""
    return list(iter_observations(instance))
