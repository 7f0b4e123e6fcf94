"""Price and capacity generators reproducing the paper's evaluation setup."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".bandwidth": (
            "ISP_RATES",
            "MigrationPrices",
            "isp_cluster_assignment",
            "isp_migration_prices",
        ),
        ".capacity": (
            "DEFAULT_OVERPROVISION",
            "attachment_frequency",
            "provision_capacities",
        ),
        ".operation": ("base_operation_prices", "gaussian_operation_prices"),
        ".reconfiguration": ("gaussian_reconfiguration_prices",),
    },
)
