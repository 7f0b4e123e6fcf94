"""Serialization of mobility traces, experiment results, and figure data."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".figures": ("load_ratio_points_csv", "save_ratio_points_csv"),
        ".results": (
            "comparison_to_dict",
            "run_result_to_dict",
            "save_comparison_json",
        ),
        ".traces": (
            "load_trace_csv",
            "load_trace_json",
            "save_trace_csv",
            "save_trace_json",
            "trace_from_dict",
            "trace_to_dict",
        ),
    },
)
