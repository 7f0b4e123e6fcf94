"""Post-run analysis: cost timelines, dual prices, and telemetry-manifest
consistency checks."""

from .manifests import RunCostCheck, load_manifest, verify_manifest_costs
from .prices import DualPriceSeries, extract_dual_prices
from .timelines import churn_timeline

__all__ = [
    "DualPriceSeries",
    "RunCostCheck",
    "churn_timeline",
    "extract_dual_prices",
    "load_manifest",
    "verify_manifest_costs",
]
