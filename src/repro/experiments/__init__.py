"""Experiment drivers regenerating every table and figure of the paper."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".adversarial": ("oscillating_price_instance", "run_threshold_sweep"),
        ".capacity": ("OVERPROVISION_FACTORS", "run_capacity_sweep"),
        ".fig1": (
            "EXAMPLE_A",
            "EXAMPLE_B",
            "Fig1Example",
            "Fig1Result",
            "run_example",
            "run_fig1",
        ),
        ".fig2": ("fig2_report", "run_fig2", "run_fig2_continuous_day"),
        ".fig3": ("fig3_report", "run_fig3"),
        ".fig4": ("fig4_report", "run_eps_sweep", "run_mu_sweep", "theoretical_bounds"),
        ".fig5": ("fig5_report", "run_fig5"),
        ".report": ("format_mean_std", "format_table"),
        ".robustness": (
            "mobility_suite",
            "robustness_spread",
            "run_mobility_robustness",
        ),
        ".runner": ("RatioPoint", "ratio_table", "run_ratio_point", "run_ratio_sweep"),
        ".scale": ("ExperimentScale", "aggregation_config", "fig2_scenario"),
        ".settings": (
            "all_paper_algorithms",
            "atomistic_algorithms",
            "holistic_algorithms",
        ),
    },
)
