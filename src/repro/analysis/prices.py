"""Dual prices from the online algorithm's subproblem solves.

The structured interior-point backend returns its primal-dual multipliers for
every P2 solve: ``theta_j`` (the marginal cost of user j's demand — what a
market-based operator would charge the user) and ``rho_i`` (the congestion
rent of cloud i's capacity — positive exactly when the cloud is full).
This module turns an :class:`OnlineRegularizedAllocator`'s solve history
into per-slot price time series, giving the economic view of a run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.regularization import OnlineRegularizedAllocator


@dataclass(frozen=True)
class DualPriceSeries:
    """Per-slot dual prices of one online run.

    Attributes:
        user_prices: (T, J) demand multipliers theta (marginal serving cost).
        congestion_rents: (T, I) capacity multipliers rho.
    """

    user_prices: np.ndarray
    congestion_rents: np.ndarray

    @property
    def num_slots(self) -> int:
        return int(self.user_prices.shape[0])

    def congested_clouds(self, threshold: float = 1e-4) -> np.ndarray:
        """Boolean (T, I) mask of slots where a cloud's capacity binds."""
        return self.congestion_rents > threshold

    def mean_user_price(self) -> np.ndarray:
        """Average marginal serving cost per user over the horizon, (J,)."""
        return self.user_prices.mean(axis=0)

    def peak_congestion(self) -> tuple[int, int, float]:
        """(slot, cloud, rent) of the largest congestion rent observed."""
        idx = np.unravel_index(
            np.argmax(self.congestion_rents), self.congestion_rents.shape
        )
        return int(idx[0]), int(idx[1]), float(self.congestion_rents[idx])


def extract_dual_prices(algorithm: OnlineRegularizedAllocator) -> DualPriceSeries:
    """Collect the dual price series from an allocator's last run.

    Requires the run to have used a backend that reports the demand and
    capacity multipliers (the structured IPM does).

    Raises:
        ValueError: if the allocator has not run yet or a solve carries no
            usable duals.
    """
    if not algorithm.last_solves:
        raise ValueError("allocator has no recorded solves; call run() first")
    user_prices: list[np.ndarray] = []
    rents: list[np.ndarray] = []
    for k, result in enumerate(algorithm.last_solves):
        duals = result.duals
        if "demand" in duals and "capacity" in duals:
            theta = np.asarray(duals["demand"], dtype=float)
            rho = np.asarray(duals["capacity"], dtype=float)
        else:
            raise ValueError(f"slot {k}: solver reported no duals")
        user_prices.append(theta)
        rents.append(rho)
    return DualPriceSeries(
        user_prices=np.stack(user_prices), congestion_rents=np.stack(rents)
    )
