"""Serialization of mobility traces, experiment results, and figure data."""

from .figures import load_ratio_points_csv, save_ratio_points_csv
from .results import (
    comparison_to_dict,
    run_result_to_dict,
    save_comparison_json,
)
from .traces import (
    load_trace_csv,
    load_trace_json,
    save_trace_csv,
    save_trace_json,
    trace_from_dict,
    trace_to_dict,
)

__all__ = [
    "comparison_to_dict",
    "load_ratio_points_csv",
    "save_ratio_points_csv",
    "load_trace_csv",
    "load_trace_json",
    "run_result_to_dict",
    "save_comparison_json",
    "save_trace_csv",
    "save_trace_json",
    "trace_from_dict",
    "trace_to_dict",
]
