"""User mobility models, traces, and trace statistics."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".attachment": ("nearest_cloud_attachment",),
        ".base": ("MobilityModel", "MobilityTrace"),
        ".levy": ("LevyFlightMobility",),
        ".markov": ("MarkovMobility", "lazy_random_walk_matrix"),
        ".random_walk": ("RandomWalkMobility",),
        ".replay": ("ReplayMobility",),
        ".stats": (
            "TraceStats",
            "dwell_lengths",
            "mean_dwell",
            "occupancy_distribution",
            "occupancy_entropy",
            "switch_rate",
            "trace_stats",
        ),
        ".taxi": ("TaxiMobility",),
    },
)
