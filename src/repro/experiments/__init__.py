"""Experiment drivers regenerating every table and figure of the paper."""

from .adversarial import (
    oscillating_price_instance,
    run_threshold_sweep,
)
from .capacity import OVERPROVISION_FACTORS, run_capacity_sweep
from .fig1 import EXAMPLE_A, EXAMPLE_B, Fig1Example, Fig1Result, run_example, run_fig1
from .fig2 import fig2_report, fig2_scenario, run_fig2, run_fig2_continuous_day
from .fig3 import fig3_report, run_fig3
from .fig4 import fig4_report, run_eps_sweep, run_mu_sweep, theoretical_bounds
from .fig5 import fig5_report, run_fig5
from .report import format_mean_std, format_table
from .robustness import mobility_suite, robustness_spread, run_mobility_robustness
from .runner import RatioPoint, ratio_table, run_ratio_point, run_ratio_sweep
from .settings import (
    ExperimentScale,
    aggregation_config,
    all_paper_algorithms,
    atomistic_algorithms,
    holistic_algorithms,
)

__all__ = [
    "EXAMPLE_A",
    "EXAMPLE_B",
    "ExperimentScale",
    "Fig1Example",
    "Fig1Result",
    "OVERPROVISION_FACTORS",
    "RatioPoint",
    "aggregation_config",
    "all_paper_algorithms",
    "atomistic_algorithms",
    "fig2_report",
    "fig2_scenario",
    "fig3_report",
    "fig4_report",
    "fig5_report",
    "format_mean_std",
    "format_table",
    "holistic_algorithms",
    "oscillating_price_instance",
    "mobility_suite",
    "ratio_table",
    "robustness_spread",
    "run_mobility_robustness",
    "run_threshold_sweep",
    "run_eps_sweep",
    "run_example",
    "run_fig1",
    "run_capacity_sweep",
    "run_fig2",
    "run_fig2_continuous_day",
    "run_fig3",
    "run_fig5",
    "run_mu_sweep",
    "run_ratio_point",
    "run_ratio_sweep",
    "theoretical_bounds",
]
