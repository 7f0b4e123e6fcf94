"""Post-run analysis: cost timelines, dual prices, and telemetry-manifest
consistency checks."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".manifests": ("RunCostCheck", "load_manifest", "verify_manifest_costs"),
        ".prices": ("DualPriceSeries", "extract_dual_prices"),
        ".timelines": ("churn_timeline",),
    },
)
