"""Golden ``doctor`` reports and ``watch`` frames over hand-built manifests.

Every golden below was recorded at commit ed948f2, when ``doctor`` and
``watch`` still each interpreted the manifest record kinds on their own,
from the three manifests of ``report_manifests.py``: complete, truncated
(no ``metrics``/``manifest_end``) and bare (no optional feed). The shared
manifest fold must reproduce them byte for byte; a line that differs
carries a ``# was ...`` note with its earlier text. At ed948f2
``doctor`` counted and listed every ``incident.written`` record while
``watch`` listed each bundle path once; both now list each path once.
Since the SciPy fallback solver was retired, ``doctor``'s solver
incidents report the unconverged-solve count instead of the fallback and
circuit-breaker events, and ``watch`` neither counts those events nor
evaluates the fallback-storm rule over them. ``watch`` shows the
unconverged-solve count, and the ``killed`` case (recorded with the
``partial``/``unconverged`` flags of ``solver.ipm.trace`` events) pins
that both tools count unconverged solves in a run killed before its
``metrics`` record.
"""

from __future__ import annotations

import io

import pytest

from repro.bench import doctor_report
from repro.telemetry import read_manifest, watch
from tests.telemetry.report_manifests import (
    bare_records,
    full_records,
    killed_records,
    truncated_records,
    write_records,
)

DOCTOR_FULL = [
    'Run post-mortem - <manifest>',
    '  config: command=fig2, seed=7, slots=2, telemetry=run.jsonl, users=6',
    '  environment: python 3.11.7, numpy 1.26.4, scipy 1.11.4, blas openblas, 4 cpus, flags REPRO_BATCH=1',
    '  events: 77 (14 slots, 6 runs)',
    '',
    'Slowest slots',
    '  slot    0:     9.25 ms  (total cost 8.000)',
    '  slot    1:     9.25 ms  (total cost 12.500)',
    '  slot    1:     7.50 ms  (total cost 3.500)',
    '  slot    0:     7.50 ms  (total cost 5.000)',
    '  slot    1:     7.50 ms  (total cost 9.500)',
    '  slot wall time: p50=4.00 ms p95=9.25 ms p99=9.25 ms over 13 slots',
    '',
    'Where the time went',
    '  4 profiled slot(s), 38.00 ms attributed',
    '  ipm.line_search                   14.00 ms  ( 36.8%)',
    '  ipm.assemble                       9.00 ms  ( 23.7%)',
    '  ipm.factorize_smw                  5.00 ms  ( 13.2%)',
    '  spine.account                      2.50 ms  (  6.6%)',
    '  a.one                              1.00 ms  (  2.6%)',
    '  b.two                              1.00 ms  (  2.6%)',
    '  c.three                            1.00 ms  (  2.6%)',
    '  d.four                             1.00 ms  (  2.6%)',
    '  slowest slot    1:    12.50 ms (mostly ipm.assemble)',
    '  slowest slot    2:    12.50 ms (mostly ipm.line_search)',
    '  slowest slot    0:    10.00 ms (mostly ipm.line_search)',
    '',
    'Watchdog alerts',
    '  certificate-gap: 1, deadline-miss: 2, ratio-over-bound: 1, slo:deadline-miss: 1, slo:fallback-rate: 1, solver-stall: 1',
    '  [deadline-miss] (slot 3) 3 deadline misses in 25 slots',
    '  [slo:deadline-miss] deadline-miss burning 25.0x fast',
    '  [certificate-gap] (slot 4) recorded certificate gap',
    '  [solver-stall] (slot 9) slot wall time 500.0 ms exceeds 8 x p95',
    '  [deadline-miss] (slot 5) 5 deadline misses in 25 slots',
    '  ... 2 more',
    '',
    'SLOs & Incidents',
    '  slo.burn transitions: 4 (2 still firing, 1 resolved)',
    '  FIRING [deadline-miss] fast 25.0x / slow 9.0x of budget 0.01',
    '  FIRING [fallback-rate] fast 40.0x / slow 12.2x of budget 0.01',
    '  burn [deadline-miss] fast 25.00x / slow 9.00x',
    '  burn [fallback-rate] fast 40.00x / slow 0.00x',
    '  flight snapshots captured: 12',
    '  incident bundles written: 2',  # was '  incident bundles written: 3'
    '    [deadline-miss] bundles/incident-000-a.jsonl',
    '    [manual] bundles/incident-001-b.jsonl',
    # was '    [deadline-miss] bundles/incident-000-a.jsonl' (listed twice)
    '    replay with: repro-edge incident replay BUNDLE',
    '  watchdog alerts suppressed by cooldown: 2',
    '',
    'Solver incidents',
    # was '  fallbacks: 6, circuit-breaker openings: 1' and one line per
    # fallback (singular matrix 0-4) and circuit opening
    '  unconverged solves: 2 (finished partial at their last interior iterate)',
    '',
    'Optimality certificates',
    '  7 certificates, 4 above tol 1e-06',
    '  slot    4: rel gap 3.000e-03 (kkt 3.000e-04, lp)  VIOLATION',
    '  slot    1: rel gap 2.000e-06 (kkt 2.000e-07, lp)  VIOLATION',
    '  slot    2: rel gap 2.000e-06 (kkt 2.000e-07, solver)  VIOLATION',
    '  slot    5: rel gap 2.000e-06 (kkt 2.000e-07, lp)  VIOLATION',
    '  slot    0: rel gap 1.000e-09 (kkt 1.000e-10, solver)  ok',
    '',
    'Competitive ratio vs Theorem 2',
    '  bound 2.200, final ratio 1.310, worst prefix 1.450, certified: True',
    '  bound 2.200, final ratio 2.410, worst prefix 2.500, certified: False',
    '  VIOLATION at slot 5: ratio 2.500 > bound 2.200',
    '',
    'Interior-point convergence',
    '  4 solves, 58 predictor-corrector iterations (max 30, mean 14.5)',
    '  terminal complementarity <= 3.000e-04, terminal certified gap <= 5.000e-03',
    '  WARNING: 1 solve(s) returned with a certified gap above the certificate tolerance',
    '',
    'Aggregation',
    '  3 aggregated slots, cohorts 8..12, mean reduction 5.2x',
    '  worst spread 0.350 -> a-priori cost error bound 0.700',
    '  worst measured disaggregation gap 2.000e-06  ok',
    '',
    'Parallel sweep',
    '  6 cell(s) dispatched over 4 worker(s)',
    '  cell wall time: p50=500.00 ms p95=1250.00 ms',
    '  WARNING: 1 fan-out(s) degraded to inline execution (results correct, requested speedup lost)',
    '    6 cell(s) at 4 worker(s): PicklingError: boom',
    '',
    'Service',
    '  4 request(s) served, 1 rejected, 2 superseded',
    '  deadline misses: 6 (3 budget-truncated solves)',
    '  slot latency: p50=4.50 ms p95=30.00 ms p99=0.00 ms over 4 request(s)',
    '  miss at slot    0:    10.00 ms (deadline 5.0 ms, partial solve)',
    '  miss at slot    1:    11.00 ms (deadline 5.0 ms)',
    '  miss at slot    2:    12.00 ms (no deadline configured, partial solve)',
    '  miss at slot    3:    13.00 ms (deadline 5.0 ms)',
    '  miss at slot    4:    14.00 ms (deadline 5.0 ms, partial solve)',
]

WATCH_FULL = [
    'repro-edge watch - <manifest>  [COMPLETE]',
    '  config : command=fig2, seed=7, slots=2, telemetry=run.jsonl, users=6',
    '  slots  : 14 done across 7 run(s) (1 in flight), 77 events',
    '  wall   : p50 3.92 ms  p95 9.25 ms  max 9.25 ms',
    '  cost   : op 105.000  sq 45.500  rc 3.500  mg 1.625  total 164.500',
    '  solver : 58 iterations / 4 solves, 2 unconverged',
    # was '  solver : 58 iterations / 4 solves' (watch showed no unconverged
    # count), and before that ended ', 6 fallback(s), 1 circuit-open(s)'
    '  ratio  : 1.2000 vs bound 2.2000  worst prefix 2.5000  certified: False',
    '  agg    : 3 slot(s), 8 cohorts (6.0x reduction), error bound 0.700  worst gap 2.00e-06',
    '  svc    : 4 request(s)  p50 4.53 ms  p95 29.43 ms  2 deadline miss(es)',
    '  phases : ipm.line_search p95 8.00 ms  ipm.assemble p95 5.00 ms  ipm.factorize_smw p95 5.00 ms',
    '  slo    : 3 objective(s) tracked  FIRING deadline-miss, fallback-rate',
    '    [deadline-miss] burn fast 25.0x  slow 9.0x  (budget 0.01)',
    '    [fallback-rate] burn fast 40.0x  slow 12.2x  (budget 0.01)',
    '  incid  : 2 bundle(s) written',
    '    bundles/incident-000-a.jsonl',
    '    bundles/incident-001-b.jsonl',
    '  alerts : 11',  # was '  alerts : 12'
    # was '    [fallback-storm] slot 2: 3 solver fallbacks within the last 25 slots'
    '    [certificate-gap] slot 1: relative duality gap 2.000e-06 exceeds tol 1e-06',
    '    [certificate-gap] slot 2: relative duality gap 2.000e-06 exceeds tol 1e-06',
    '    [certificate-gap] slot 4: relative duality gap 3.000e-03 exceeds tol 1e-06',
    '    [certificate-gap] slot 5: relative duality gap 2.000e-06 exceeds tol 1e-06',
    '    [ratio-over-bound] slot 5: empirical ratio 2.500000 exceeds the certified bound 2.200000',
    '    [deadline-miss] slot 2: 3 deadline misses within the last 25 slots',  # was not shown
    '    ... 5 more',  # was '    ... 6 more'
    '    online-approx            2 slots  total        5.500  [done]',
    '    offline-opt              2 slots  total       11.500  [done]',
    '    online-approx            2 slots  total       17.500  [done]',
    '    offline-opt              2 slots  total       23.500  [done]',
    '    online-approx            2 slots  total       29.500  [done]',
    '    offline-opt              2 slots  total       35.500  [done]',
    '    ... 1 more run(s)',
    '',
]

DOCTOR_TRUNCATED = [
    'Run post-mortem - <manifest>',
    '  ** TRUNCATED MANIFEST: the run died before flushing manifest_end; metrics/spans sections may be missing **',
    '  config: command=fig2, seed=7, slots=2, telemetry=run.jsonl, users=6',
    '  environment: python 3.11.7, numpy 1.26.4, scipy 1.11.4, blas openblas, 4 cpus, flags REPRO_BATCH=1',
    '  events: 77 (14 slots, 6 runs)',
    '',
    'Slowest slots',
    '  slot    0:     9.25 ms  (total cost 8.000)',
    '  slot    1:     9.25 ms  (total cost 12.500)',
    '  slot    1:     7.50 ms  (total cost 3.500)',
    '  slot    0:     7.50 ms  (total cost 5.000)',
    '  slot    1:     7.50 ms  (total cost 9.500)',
    '',
    'Where the time went',
    '  4 profiled slot(s), 38.00 ms attributed',
    '  ipm.line_search                   14.00 ms  ( 36.8%)',
    '  ipm.assemble                       9.00 ms  ( 23.7%)',
    '  ipm.factorize_smw                  5.00 ms  ( 13.2%)',
    '  spine.account                      2.50 ms  (  6.6%)',
    '  a.one                              1.00 ms  (  2.6%)',
    '  b.two                              1.00 ms  (  2.6%)',
    '  c.three                            1.00 ms  (  2.6%)',
    '  d.four                             1.00 ms  (  2.6%)',
    '  slowest slot    1:    12.50 ms (mostly ipm.assemble)',
    '  slowest slot    2:    12.50 ms (mostly ipm.line_search)',
    '  slowest slot    0:    10.00 ms (mostly ipm.line_search)',
    '',
    'Watchdog alerts',
    '  certificate-gap: 1, deadline-miss: 2, ratio-over-bound: 1, slo:deadline-miss: 1, slo:fallback-rate: 1, solver-stall: 1',
    '  [deadline-miss] (slot 3) 3 deadline misses in 25 slots',
    '  [slo:deadline-miss] deadline-miss burning 25.0x fast',
    '  [certificate-gap] (slot 4) recorded certificate gap',
    '  [solver-stall] (slot 9) slot wall time 500.0 ms exceeds 8 x p95',
    '  [deadline-miss] (slot 5) 5 deadline misses in 25 slots',
    '  ... 2 more',
    '',
    'SLOs & Incidents',
    '  slo.burn transitions: 4 (2 still firing, 1 resolved)',
    '  FIRING [deadline-miss] fast 25.0x / slow 9.0x of budget 0.01',
    '  FIRING [fallback-rate] fast 40.0x / slow 12.2x of budget 0.01',
    '  incident bundles written: 2',  # was '  incident bundles written: 3'
    '    [deadline-miss] bundles/incident-000-a.jsonl',
    '    [manual] bundles/incident-001-b.jsonl',
    # was '    [deadline-miss] bundles/incident-000-a.jsonl' (listed twice)
    '    replay with: repro-edge incident replay BUNDLE',
    '',
    'Solver incidents',
    # was '  fallbacks: 6, circuit-breaker openings: 1' and one line per
    # fallback (singular matrix 0-4) and circuit opening
    '  none - every solve certified its gap or met its budget',
    '',
    'Optimality certificates',
    '  7 certificates, 4 above tol 1e-06',
    '  slot    4: rel gap 3.000e-03 (kkt 3.000e-04, lp)  VIOLATION',
    '  slot    1: rel gap 2.000e-06 (kkt 2.000e-07, lp)  VIOLATION',
    '  slot    2: rel gap 2.000e-06 (kkt 2.000e-07, solver)  VIOLATION',
    '  slot    5: rel gap 2.000e-06 (kkt 2.000e-07, lp)  VIOLATION',
    '  slot    0: rel gap 1.000e-09 (kkt 1.000e-10, solver)  ok',
    '',
    'Competitive ratio vs Theorem 2',
    '  bound 2.200, final ratio 1.310, worst prefix 1.450, certified: True',
    '  bound 2.200, final ratio 2.410, worst prefix 2.500, certified: False',
    '  VIOLATION at slot 5: ratio 2.500 > bound 2.200',
    '',
    'Interior-point convergence',
    '  4 solves, 58 predictor-corrector iterations (max 30, mean 14.5)',
    '  terminal complementarity <= 3.000e-04, terminal certified gap <= 5.000e-03',
    '  WARNING: 1 solve(s) returned with a certified gap above the certificate tolerance',
    '',
    'Aggregation',
    '  3 aggregated slots, cohorts 8..12, mean reduction 5.2x',
    '  worst spread 0.350 -> a-priori cost error bound 0.700',
    '  worst measured disaggregation gap 2.000e-06  ok',
    '',
    'Parallel sweep',
    '  not used (no sweep dispatch recorded)',
    '',
    'Service',
    '  0 request(s) served, 0 rejected, 0 superseded',
    '  deadline misses: 0 (0 budget-truncated solves)',
    '  miss at slot    0:    10.00 ms (deadline 5.0 ms, partial solve)',
    '  miss at slot    1:    11.00 ms (deadline 5.0 ms)',
    '  miss at slot    2:    12.00 ms (no deadline configured, partial solve)',
    '  miss at slot    3:    13.00 ms (deadline 5.0 ms)',
    '  miss at slot    4:    14.00 ms (deadline 5.0 ms, partial solve)',
]

WATCH_TRUNCATED = [
    'repro-edge watch - <manifest>  [LIVE]',
    '  config : command=fig2, seed=7, slots=2, telemetry=run.jsonl, users=6',
    '  slots  : 14 done across 7 run(s) (1 in flight), 77 events',
    '  wall   : p50 3.92 ms  p95 9.25 ms  max 9.25 ms',
    '  cost   : op 105.000  sq 45.500  rc 3.500  mg 1.625  total 164.500',
    '  solver : 58 iterations / 4 solves',  # was ', 6 fallback(s), 1 circuit-open(s)' at the end
    '  ratio  : 1.2000 vs bound 2.2000  worst prefix 2.5000  certified: False',
    '  agg    : 3 slot(s), 8 cohorts (6.0x reduction), error bound 0.700  worst gap 2.00e-06',
    '  svc    : 4 request(s)  p50 4.53 ms  p95 29.43 ms  2 deadline miss(es)',
    '  phases : ipm.line_search p95 8.00 ms  ipm.assemble p95 5.00 ms  ipm.factorize_smw p95 5.00 ms',
    '  slo    : 3 objective(s) tracked  FIRING deadline-miss, fallback-rate',
    '    [deadline-miss] burn fast 25.0x  slow 9.0x  (budget 0.01)',
    '    [fallback-rate] burn fast 40.0x  slow 12.2x  (budget 0.01)',
    '  incid  : 2 bundle(s) written',
    '    bundles/incident-000-a.jsonl',
    '    bundles/incident-001-b.jsonl',
    '  alerts : 11',  # was '  alerts : 12'
    # was '    [fallback-storm] slot 2: 3 solver fallbacks within the last 25 slots'
    '    [certificate-gap] slot 1: relative duality gap 2.000e-06 exceeds tol 1e-06',
    '    [certificate-gap] slot 2: relative duality gap 2.000e-06 exceeds tol 1e-06',
    '    [certificate-gap] slot 4: relative duality gap 3.000e-03 exceeds tol 1e-06',
    '    [certificate-gap] slot 5: relative duality gap 2.000e-06 exceeds tol 1e-06',
    '    [ratio-over-bound] slot 5: empirical ratio 2.500000 exceeds the certified bound 2.200000',
    '    [deadline-miss] slot 2: 3 deadline misses within the last 25 slots',  # was not shown
    '    ... 5 more',  # was '    ... 6 more'
    '    online-approx            2 slots  total        5.500  [done]',
    '    offline-opt              2 slots  total       11.500  [done]',
    '    online-approx            2 slots  total       17.500  [done]',
    '    offline-opt              2 slots  total       23.500  [done]',
    '    online-approx            2 slots  total       29.500  [done]',
    '    offline-opt              2 slots  total       35.500  [done]',
    '    ... 1 more run(s)',
    '',
]

DOCTOR_BARE = [
    'Run post-mortem - <manifest>',
    '  config: (none recorded)',
    '  environment: (not recorded - pre-fingerprint manifest)',
    '  events: 3 (2 slots, 1 runs)',
    '',
    'Slowest slots',
    '  no per-slot timings recorded',
    '',
    'Where the time went',
    '  no profile recorded (run with --profile)',
    '',
    'Watchdog alerts',
    '  none recorded',
    '',
    'SLOs & Incidents',
    '  no SLO plane or flight recorder active this run',
    '',
    'Solver incidents',
    '  none - every solve certified its gap or met its budget',  # was '  none - primary backend handled every solve'
    '',
    'Optimality certificates',
    '  no certificates recorded (run without certify)',
    '',
    'Competitive ratio vs Theorem 2',
    '  no ratio trace recorded',
    '',
    'Interior-point convergence',
    '  no interior-point traces recorded',
    '',
    'Aggregation',
    '  not used (per-user solves)',
    '',
    'Parallel sweep',
    '  not used (no sweep dispatch recorded)',
    '',
    'Service',
    '  no service activity recorded',
]

WATCH_BARE = [
    'repro-edge watch - <manifest>  [COMPLETE]',
    '  slots  : 2 done across 1 run(s) (0 in flight), 3 events',
    '  cost   : op 2.000  sq 2.000  rc 0.000  mg 0.000  total 4.000',
    '  solver : 0 iterations / 0 solves',  # was ', 0 fallback(s), 0 circuit-open(s)' at the end
    '  ratio  : (no diag.ratio feed in this manifest)',
    '  alerts : none',
    '    online-approx            2 slots  total        4.000  [done]',
    '',
]


def _with_lines(golden: list[str], replaced: dict[str, str]) -> list[str]:
    """``golden`` with each line in ``replaced`` swapped for its value."""
    assert set(replaced) <= set(golden)
    return [replaced.get(line, line) for line in golden]


#: The truncated manifest with flagged solver traces: one unconverged
#: solve, counted from the events, is the only difference.
DOCTOR_KILLED = _with_lines(
    DOCTOR_TRUNCATED,
    {
        '  none - every solve certified its gap or met its budget':
        '  unconverged solves: 1 (finished partial at their last interior iterate)',
    },
)

WATCH_KILLED = _with_lines(
    WATCH_TRUNCATED,
    {
        '  solver : 58 iterations / 4 solves':
        '  solver : 58 iterations / 4 solves, 1 unconverged',
    },
)


CASES = {
    "full": (full_records, DOCTOR_FULL, WATCH_FULL),
    "truncated": (truncated_records, DOCTOR_TRUNCATED, WATCH_TRUNCATED),
    "killed": (killed_records, DOCTOR_KILLED, WATCH_KILLED),
    "bare": (bare_records, DOCTOR_BARE, WATCH_BARE),
}


@pytest.fixture(params=sorted(CASES))
def case(request, tmp_path):
    build, doctor_golden, watch_golden = CASES[request.param]
    path = write_records(tmp_path / f"{request.param}.jsonl", build())
    return path, doctor_golden, watch_golden


def test_doctor_report_matches_its_golden(case):
    path, golden, _ = case
    report = doctor_report(path).replace(str(path), "<manifest>")
    assert report.split("\n") == golden


def test_doctor_report_of_a_loaded_record_matches_too(case):
    path, golden, _ = case
    report = doctor_report(read_manifest(path, strict=False))
    assert report.split("\n") == [
        "Run post-mortem - (in-memory record)", *golden[1:]
    ]


def test_watch_frame_matches_its_golden(case):
    path, _, golden = case
    out = io.StringIO()
    assert watch(path, follow=False, stream=out) == 0
    assert out.getvalue().replace(str(path), "<manifest>").split("\n") == golden
