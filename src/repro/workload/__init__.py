"""User workload models."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".distributions": (
            "WORKLOAD_DISTRIBUTIONS",
            "WorkloadGenerator",
            "make_workloads",
            "normal_workloads",
            "power_workloads",
            "uniform_workloads",
        ),
    },
)
