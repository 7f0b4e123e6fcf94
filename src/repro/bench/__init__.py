"""Continuous benchmark/regression harness on the telemetry spine.

Three pieces (see docs/DIAGNOSTICS.md for the workflow):

* :mod:`repro.bench.records` — the ``BENCH_<suite>.json`` schema:
  lower-is-better metrics tagged ``time``/``count``/``cost`` plus a
  diagnostics block and the originating commit;
* :mod:`repro.bench.suites` — named suites (``smoke``, ``solver``,
  ``fig2``, ``fig5``, ``parallel``) wrapping the repo's benchmark
  workloads into plain record-producing functions
  (``repro-edge bench --suite <name>``);
* :mod:`repro.bench.compare` — baseline gating: wall time within a noise
  threshold (advisory by default), iteration counts and costs gated
  deterministically (``repro-edge bench --compare BASELINE.json``);
* :mod:`repro.bench.doctor` — post-mortem rendering of a run manifest,
  including torn ones (``repro-edge doctor MANIFEST.jsonl``).
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".compare": (
            "DEFAULT_COST_RTOL",
            "DEFAULT_COUNT_RTOL",
            "DEFAULT_TIME_THRESHOLD",
            "CompareReport",
            "MetricDelta",
            "compare_records",
        ),
        ".doctor": ("doctor_report", "resolve_manifest_path"),
        ".records": (
            "BENCH_FORMAT",
            "BenchMetric",
            "BenchRecord",
            "current_git_commit",
            "read_record",
            "write_record",
        ),
        ".suites": ("SUITES", "run_suite"),
    },
)
