"""Edge-cloud topologies: site locations, adjacency, and delay matrices."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".delays": ("inter_cloud_delay_matrix", "validate_delay_matrix"),
        ".geo": (
            "EARTH_RADIUS_KM",
            "GeoPoint",
            "haversine_km",
            "haversine_km_vec",
            "pairwise_distance_km",
        ),
        ".metro": (
            "ROME_METRO_LINE_A",
            "ROME_METRO_LINE_B",
            "ROME_METRO_STATIONS",
            "Topology",
            "rome_metro_topology",
        ),
    },
)
