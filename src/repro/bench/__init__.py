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

from .compare import (
    DEFAULT_COST_RTOL,
    DEFAULT_COUNT_RTOL,
    DEFAULT_TIME_THRESHOLD,
    CompareReport,
    MetricDelta,
    compare_records,
)
from .doctor import doctor_report, resolve_manifest_path
from .records import (
    BENCH_FORMAT,
    BenchMetric,
    BenchRecord,
    current_git_commit,
    read_record,
    write_record,
)
from .suites import SUITES, run_suite

__all__ = [
    "BENCH_FORMAT",
    "BenchMetric",
    "BenchRecord",
    "CompareReport",
    "DEFAULT_COST_RTOL",
    "DEFAULT_COUNT_RTOL",
    "DEFAULT_TIME_THRESHOLD",
    "MetricDelta",
    "SUITES",
    "compare_records",
    "current_git_commit",
    "doctor_report",
    "read_record",
    "resolve_manifest_path",
    "run_suite",
    "write_record",
]
