"""The edge-cloud resource allocation problem instance (paper Section II).

A :class:`ProblemInstance` bundles every input of problem P0:

* the system: capacities ``C_i`` and inter-cloud delays ``d(i, i')``;
* the users: workloads ``lambda_j``, per-slot attachments ``l_{j,t}`` and
  access delays ``d(j, l_{j,t})``;
* the prices: operation ``a_{i,t}``, reconfiguration ``c_i``, and migration
  ``b_i^out`` / ``b_i^in``;
* the weights between the static and dynamic cost groups (Section II-D
  "we omit the weights here but we will keep them during our evaluation").

All arrays use the axis order (time, cloud, user) = (T, I, J) throughout the
project.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..pricing.bandwidth import MigrationPrices
from ..topology.delays import validate_delay_matrix


@dataclass(frozen=True)
class CostWeights:
    """Weights of the static and dynamic cost groups in the objective.

    The paper's Section V-C sweep parameter mu is the ratio
    ``dynamic / static``.
    """

    static: float = 1.0
    dynamic: float = 1.0

    def __post_init__(self) -> None:
        if self.static < 0 or self.dynamic < 0:
            raise ValueError("cost weights must be nonnegative")
        if self.static == 0 and self.dynamic == 0:
            raise ValueError("at least one cost weight must be positive")

    @property
    def mu(self) -> float:
        """The dynamic/static weight ratio swept in Figure 4."""
        if self.static == 0:
            return float("inf")
        return self.dynamic / self.static

    @classmethod
    def from_mu(cls, mu: float) -> "CostWeights":
        """Weights with static = 1 and dynamic = mu."""
        if mu < 0:
            raise ValueError("mu must be nonnegative")
        return cls(static=1.0, dynamic=mu)


@dataclass(frozen=True)
class ProblemInstance:
    """All inputs of the online edge-cloud allocation problem P0.

    Attributes:
        workloads: (J,) positive per-user workloads lambda_j.
        capacities: (I,) positive per-cloud capacities C_i.
        op_prices: (T, I) positive operation prices a_{i,t}.
        reconfig_prices: (I,) nonnegative reconfiguration prices c_i.
        migration_prices: per-cloud outbound/inbound migration prices.
        inter_cloud_delay: (I, I) symmetric priced delays, zero diagonal.
        attachment: (T, J) integer l_{j,t} — the cloud covering user j.
        access_delay: (T, J) priced user-to-attachment delays d(j, l_{j,t}).
        weights: static/dynamic cost weights.
    """

    workloads: np.ndarray
    capacities: np.ndarray
    op_prices: np.ndarray
    reconfig_prices: np.ndarray
    migration_prices: MigrationPrices
    inter_cloud_delay: np.ndarray
    attachment: np.ndarray
    access_delay: np.ndarray
    weights: CostWeights = field(default_factory=CostWeights)

    def __post_init__(self) -> None:
        workloads = np.asarray(self.workloads, dtype=float)
        capacities = np.asarray(self.capacities, dtype=float)
        op_prices = np.asarray(self.op_prices, dtype=float)
        reconfig = np.asarray(self.reconfig_prices, dtype=float)
        delay = np.asarray(self.inter_cloud_delay, dtype=float)
        attachment = np.asarray(self.attachment)
        access = np.asarray(self.access_delay, dtype=float)

        for name, values in (
            ("workloads", workloads),
            ("capacities", capacities),
            ("operation prices", op_prices),
            ("reconfig_prices", reconfig),
            ("migration_prices", self.migration_prices.combined),
            ("access_delay", access),
        ):
            if not np.isfinite(values).all():
                raise ValueError(f"{name} must be finite")
        if workloads.ndim != 1 or workloads.size == 0:
            raise ValueError("workloads must be a nonempty (J,) array")
        if (workloads <= 0).any():
            raise ValueError("workloads must be strictly positive")
        if capacities.ndim != 1 or capacities.size == 0:
            raise ValueError("capacities must be a nonempty (I,) array")
        if (capacities <= 0).any():
            raise ValueError("capacities must be strictly positive")
        num_clouds = capacities.size
        num_users = workloads.size
        if op_prices.ndim != 2 or op_prices.shape[1] != num_clouds:
            raise ValueError(f"op_prices must have shape (T, {num_clouds})")
        num_slots = op_prices.shape[0]
        if num_slots == 0:
            raise ValueError("need at least one time slot")
        if (op_prices < 0).any():
            raise ValueError("operation prices must be nonnegative")
        if reconfig.shape != (num_clouds,) or (reconfig < 0).any():
            raise ValueError("reconfig_prices must be a nonnegative (I,) array")
        if self.migration_prices.out.shape != (num_clouds,):
            raise ValueError("migration_prices must cover every cloud")
        if delay.shape != (num_clouds, num_clouds):
            raise ValueError("inter_cloud_delay must have shape (I, I)")
        validate_delay_matrix(delay)
        if attachment.shape != (num_slots, num_users):
            raise ValueError(f"attachment must have shape ({num_slots}, {num_users})")
        if not np.issubdtype(attachment.dtype, np.integer):
            raise ValueError("attachment must be an integer array")
        if attachment.min() < 0 or attachment.max() >= num_clouds:
            raise ValueError("attachment entries must index a cloud")
        if access.shape != (num_slots, num_users) or (access < 0).any():
            raise ValueError("access_delay must be a nonnegative (T, J) array")
        total_workload = workloads.sum()
        if capacities.sum() < total_workload - 1e-9:
            raise ValueError(
                "infeasible instance: total capacity "
                f"{capacities.sum():.6g} < total workload {total_workload:.6g}"
            )

    @property
    def num_clouds(self) -> int:
        """I — the number of edge clouds."""
        return int(np.asarray(self.capacities).size)

    @property
    def num_users(self) -> int:
        """J — the number of users."""
        return int(np.asarray(self.workloads).size)

    @property
    def num_slots(self) -> int:
        """T — the number of time slots."""
        return int(np.asarray(self.op_prices).shape[0])

    @property
    def total_workload(self) -> float:
        """Sum of all user workloads."""
        return float(np.asarray(self.workloads, dtype=float).sum())

    def static_prices(self, slot: int) -> np.ndarray:
        """Per-unit static price p_{i,j} = a_{i,t} + d(l_{j,t}, i)/lambda_j.

        This is the coefficient of x_{i,j,t} in the static part of the
        objective (operation cost plus the allocation-dependent part of the
        service quality cost), *before* applying the static weight.

        Returns:
            (I, J) array for the given slot.
        """
        if not 0 <= slot < self.num_slots:
            raise IndexError(f"slot {slot} outside [0, {self.num_slots})")
        delay_to_attachment = np.asarray(self.inter_cloud_delay)[
            :, np.asarray(self.attachment)[slot]
        ]  # (I, J): d(i, l_{j,t}) = d(l_{j,t}, i) by symmetry
        return (
            np.asarray(self.op_prices, dtype=float)[slot][:, None]
            + delay_to_attachment / np.asarray(self.workloads, dtype=float)[None, :]
        )

    def access_delay_constant(self) -> float:
        """The allocation-independent service-quality term Sum_t Sum_j d(j, l_{j,t})."""
        return float(np.asarray(self.access_delay, dtype=float).sum())

    def slice_slots(self, start: int, stop: int) -> "ProblemInstance":
        """A sub-instance covering slots [start, stop)."""
        if not 0 <= start < stop <= self.num_slots:
            raise ValueError(f"invalid slot range [{start}, {stop})")
        return replace(
            self,
            op_prices=np.asarray(self.op_prices)[start:stop],
            attachment=np.asarray(self.attachment)[start:stop],
            access_delay=np.asarray(self.access_delay)[start:stop],
        )

    def with_weights(self, weights: CostWeights) -> "ProblemInstance":
        """The same instance with different static/dynamic weights."""
        return replace(self, weights=weights)
