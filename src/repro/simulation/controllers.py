"""Controller forms of the paper's algorithm.

The baselines keep their controller forms next to their batch forms (in
:mod:`repro.baselines`); the regularized algorithm's controller lives here
because :mod:`repro.core` sits below the simulation layer in the import
graph and must not depend on it at module scope.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.regularization import OnlineRegularizedAllocator
from ..solvers.base import SolverResult
from .observations import SlotObservation, SystemDescription, single_slot_instance


@dataclass
class RegularizedController:
    """Streaming form of :class:`OnlineRegularizedAllocator`.

    Carries x*_{t-1} as internal state; each observation triggers one P2
    solve. Identical decisions to the batch algorithm by construction (P2
    for slot t depends only on slot-t observations and x*_{t-1}) — indeed
    the batch ``run()`` *is* this controller driven over the instance's
    observation stream. Every solve is appended to
    ``algorithm.last_solves`` so solver diagnostics (dual prices,
    iteration counts) keep working on streamed runs.
    """

    system: SystemDescription
    algorithm: OnlineRegularizedAllocator = field(
        default_factory=OnlineRegularizedAllocator
    )
    name: str = "online-approx (streaming)"
    #: Solver result of the most recent observed slot (the flight recorder
    #: and the serving session read it).
    last_result: SolverResult | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self._x_prev = self.system.zero_allocation()
        self._slots_seen = 0

    def observe(self, observation: SlotObservation) -> np.ndarray:
        """Solve P2 for the observed slot and advance the internal state."""
        instance = single_slot_instance(self.system, observation)
        x_opt, result = self.algorithm.step(instance, 0, self._x_prev)
        self.algorithm.last_solves.append(result)
        self.last_result = result
        self._x_prev = x_opt
        self._slots_seen += 1
        return x_opt

    def aggregated(self, config=None) -> "object":
        """The cohort-aggregated form of this controller.

        Returns an :class:`repro.aggregate.AggregatedController` sharing
        this controller's system and algorithm: users are clustered into
        (station, workload-bucket) cohorts, one reduced P2 is solved per
        slot — optionally as shard lanes of one lockstep solve — and the
        solution is split back to users (docs/SCALING.md).
        """
        from ..aggregate.config import AggregationConfig
        from ..aggregate.controller import AggregatedController

        return AggregatedController(
            system=self.system,
            algorithm=self.algorithm,
            config=config if config is not None else AggregationConfig(),
        )

    def reset(self) -> None:
        """Drop state: the next observation starts a fresh horizon."""
        self._x_prev = self.system.zero_allocation()
        self._slots_seen = 0
        self.algorithm.last_solves = []
        self.algorithm.last_certificates = []
        self.last_result = None

    def get_state(self) -> tuple[np.ndarray, int]:
        """Snapshot (x*_{t-1}, slots seen); solver diagnostics are not kept."""
        return (self._x_prev.copy(), self._slots_seen)

    def set_state(self, state: object) -> None:
        """Restore a snapshot produced by :meth:`get_state`."""
        x_prev, slots_seen = state  # type: ignore[misc]
        self._x_prev = np.asarray(x_prev, dtype=float).copy()
        self._slots_seen = int(slots_seen)
