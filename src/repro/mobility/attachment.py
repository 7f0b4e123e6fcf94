"""GPS positions -> edge-cloud attachment.

The paper assumes "each edge cloud is supposed to cover a small geographical
area and any area will only receive coverage from a single edge cloud"
(Section II-A) — i.e., a Voronoi partition: every position attaches to the
nearest edge cloud.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..topology.geo import haversine_km_vec

if TYPE_CHECKING:
    from ..topology.metro import Topology


def nearest_cloud_attachment(
    positions: np.ndarray,
    topology: Topology,
    *,
    price_per_km: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Attach every (lat, lon) position to its nearest edge cloud.

    Args:
        positions: array of shape (..., 2) of (lat, lon) pairs.
        topology: deployment whose sites are the candidate clouds.
        price_per_km: scale converting km to access-delay cost units, the
            same scale used for inter-cloud delays.

    Returns:
        (attachment, access_delay): integer array of shape ``(...)`` with the
        nearest site per position, and the priced distance to it.
    """
    positions = np.asarray(positions, dtype=float)
    if positions.shape[-1] != 2:
        raise ValueError("positions must end with a (lat, lon) axis of size 2")
    if price_per_km < 0:
        raise ValueError("price_per_km must be nonnegative")
    site_lats = np.array([p.lat for p in topology.points])
    site_lons = np.array([p.lon for p in topology.points])
    # Broadcast positions (..., 1) against sites (I,) -> distances (..., I).
    dists = haversine_km_vec(
        positions[..., 0:1], positions[..., 1:2], site_lats, site_lons
    )
    attachment = np.argmin(dists, axis=-1)
    access = np.take_along_axis(dists, attachment[..., None], axis=-1)[..., 0]
    return attachment.astype(np.int64), access * price_per_km
