"""Delay matrices derived from topologies.

Section V-A: "The delay in our model is measured by the geographical
distance between any two entities based on their GPS locations. ... The
service quality price is set to be proportional to the measured delay."

We therefore expose a single knob, ``price_per_km``, that converts
kilometers into service-quality cost units.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .metro import Topology


def inter_cloud_delay_matrix(topology: Topology, *, price_per_km: float = 1.0) -> np.ndarray:
    """Inter-cloud delay d(i, i') as priced geographic distance.

    Returns a symmetric (I, I) matrix with an exactly-zero diagonal,
    matching the paper's convention d(i, i) = 0.
    """
    if price_per_km < 0:
        raise ValueError("price_per_km must be nonnegative")
    return topology.distance_matrix_km() * price_per_km


def validate_delay_matrix(delay: np.ndarray) -> None:
    """Raise ValueError unless ``delay`` is a valid inter-cloud delay matrix.

    Valid means: square, nonnegative, zero diagonal, symmetric. (The paper's
    model does not require the triangle inequality, so we do not enforce it.)
    """
    delay = np.asarray(delay)
    if delay.ndim != 2 or delay.shape[0] != delay.shape[1]:
        raise ValueError(f"delay matrix must be square, got shape {delay.shape}")
    if not np.isfinite(delay).all():
        raise ValueError("delay matrix has non-finite entries")
    if (delay < 0).any():
        raise ValueError("delay matrix has negative entries")
    if (np.abs(delay.diagonal()) > 1e-12).any():
        raise ValueError("delay matrix diagonal must be zero (d(i,i)=0)")
    # np.allclose(delay, delay.T, atol=1e-9) without its call overhead.
    if (np.abs(delay - delay.T) > 1e-9 + 1e-5 * delay.T).any():
        raise ValueError("delay matrix must be symmetric")
