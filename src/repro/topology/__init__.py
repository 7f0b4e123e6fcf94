"""Edge-cloud topologies: site locations, adjacency, and delay matrices."""

from .delays import inter_cloud_delay_matrix, validate_delay_matrix
from .geo import EARTH_RADIUS_KM, GeoPoint, haversine_km, haversine_km_vec, pairwise_distance_km
from .metro import (
    ROME_METRO_LINE_A,
    ROME_METRO_LINE_B,
    ROME_METRO_STATIONS,
    Topology,
    rome_metro_topology,
)

__all__ = [
    "EARTH_RADIUS_KM",
    "GeoPoint",
    "ROME_METRO_LINE_A",
    "ROME_METRO_LINE_B",
    "ROME_METRO_STATIONS",
    "Topology",
    "haversine_km",
    "haversine_km_vec",
    "inter_cloud_delay_matrix",
    "pairwise_distance_km",
    "rome_metro_topology",
    "validate_delay_matrix",
]
