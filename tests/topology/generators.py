"""Synthetic topologies for tests: a grid and a ring of edge clouds.

Tests that need a controlled number of clouds or a known adjacency build
them here instead of from the Rome deployment. Both return the same
:class:`~repro.topology.metro.Topology` the rest of the package uses.
"""

from __future__ import annotations

import networkx as nx
import numpy as np

from repro.topology.geo import GeoPoint
from repro.topology.metro import Topology


def grid_topology(
    rows: int,
    cols: int,
    *,
    origin: tuple[float, float] = (41.88, 12.45),
    spacing_km: float = 1.0,
) -> Topology:
    """A rows x cols grid of edge clouds with 4-neighbour adjacency.

    Sites are laid out on a regular lattice anchored at ``origin``
    (lat, lon); ``spacing_km`` is the approximate distance between adjacent
    sites.
    """
    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be positive")
    lat0, lon0 = origin
    # Degrees per kilometer: 1 deg latitude ~ 111.32 km; longitude scaled by
    # cos(latitude).
    dlat = spacing_km / 111.32
    dlon = spacing_km / (111.32 * np.cos(np.radians(lat0)))
    names: list[str] = []
    points: list[GeoPoint] = []
    graph = nx.Graph()
    for r in range(rows):
        for c in range(cols):
            idx = r * cols + c
            names.append(f"grid-{r}-{c}")
            points.append(GeoPoint(lat0 + r * dlat, lon0 + c * dlon))
            graph.add_node(idx)
            if c > 0:
                graph.add_edge(idx, idx - 1)
            if r > 0:
                graph.add_edge(idx, idx - cols)
    return Topology(names=names, points=points, graph=graph)


def ring_topology(
    num_sites: int,
    *,
    center: tuple[float, float] = (41.89, 12.48),
    radius_km: float = 3.0,
) -> Topology:
    """``num_sites`` edge clouds evenly spaced on a circle, ring adjacency."""
    if num_sites < 3:
        raise ValueError("a ring needs at least 3 sites")
    lat0, lon0 = center
    dlat = radius_km / 111.32
    dlon = radius_km / (111.32 * np.cos(np.radians(lat0)))
    names: list[str] = []
    points: list[GeoPoint] = []
    graph = nx.Graph()
    for k in range(num_sites):
        angle = 2.0 * np.pi * k / num_sites
        names.append(f"ring-{k}")
        points.append(GeoPoint(lat0 + dlat * np.sin(angle), lon0 + dlon * np.cos(angle)))
        graph.add_node(k)
    for k in range(num_sites):
        graph.add_edge(k, (k + 1) % num_sites)
    return Topology(names=names, points=points, graph=graph)
