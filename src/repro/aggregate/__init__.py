"""User aggregation: solve city-scale P2 over (station, workload) cohorts.

Layer map (docs/SCALING.md walks the math):

* :mod:`config` — :class:`AggregationConfig`, the import-light knob bundle;
* :mod:`cohorts` — bucket users into weighted aggregate columns, keep the
  proportional split of a solution factored (:class:`FactoredAllocation`)
  and fold it into the next slot's cohorts pair by pair;
* :mod:`reduced` — the cohort-reduced P2 (exact for workload-uniform
  cohorts), its one-lane joint solve and its a-priori cost error bound;
* :mod:`controller` — the streaming :class:`AggregatedController` wiring
  it all into ``simulate`` plus ``aggregate.*`` telemetry.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".config": ("AggregationConfig",),
        ".cohorts": ("BucketSpec", "CohortMap", "FactoredAllocation", "build_cohorts"),
        ".controller": (
            "ERROR_EVAL_LIMIT",
            "AggregatedController",
            "SlotAggregationReport",
        ),
        ".reduced": (
            "aggregation_error_bound",
            "reduced_subproblem",
            "solve_sharded",
        ),
    },
)
