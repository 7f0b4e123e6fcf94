"""PARALLEL — sweep fan-out speedup.

A fig2-style (hour x repetition) grid executed serially vs. across a
4-worker process pool, with the determinism invariant (identical ratios)
asserted on every run. The speedup is hardware-bound: on a single-CPU
container the pool cannot beat serial (the report records the visible CPU
count next to the number); on >= 4 CPUs the grid is embarrassingly
parallel and ~Nx is expected.

Results land in benchmarks/results/parallel.txt.
"""

from __future__ import annotations

import os
import time

from repro.experiments.fig2 import fig2_scenario
from repro.experiments.runner import run_ratio_sweep
from repro.experiments.settings import all_paper_algorithms

from ._util import publish_report

#: Worker count for the parallel leg of the comparison.
WORKERS = 4


def _fig2_cases(scale, hours=("3pm", "4pm")):
    scenario = fig2_scenario(scale)
    algorithms = all_paper_algorithms(scale.eps)
    return [
        (hour, scenario, algorithms, scale.seed + 1000 * case)
        for case, hour in enumerate(hours)
    ]


def _measure_sweep(scale) -> tuple[str, float]:
    cases = _fig2_cases(scale)
    cells = len(cases) * scale.repetitions

    start = time.perf_counter()
    serial = run_ratio_sweep(cases, repetitions=scale.repetitions, workers=1)
    serial_s = time.perf_counter() - start

    start = time.perf_counter()
    parallel = run_ratio_sweep(cases, repetitions=scale.repetitions, workers=WORKERS)
    parallel_s = time.perf_counter() - start

    # Determinism invariant: the pool changes wall-clock time, never numbers.
    for ser, par in zip(serial, parallel):
        assert ser.label == par.label
        assert ser.stats == par.stats, (ser.label, ser.stats, par.stats)

    cpus = os.cpu_count() or 1
    speedup = serial_s / parallel_s
    report = "\n".join(
        [
            "Parallel sweep engine - fig2-style grid, serial vs process pool",
            f"  grid cells          : {cells} (hour x repetition)",
            f"  visible CPUs        : {cpus}",
            f"  serial (workers=1)  : {serial_s:8.2f} s",
            f"  pool   (workers={WORKERS}) : {parallel_s:8.2f} s",
            f"  speedup             : {speedup:.2f}x",
            "  determinism         : parallel ratios identical to serial (asserted)",
        ]
    )
    if cpus >= 4:
        # The grid is embarrassingly parallel; on real multicore hardware
        # anything below 2x means the executor is broken.
        assert speedup >= 2.0, report
    return report, speedup


def test_parallel_engine(benchmark, scale):
    """Measure the sweep once and publish the report."""
    report, _ = benchmark.pedantic(
        lambda: _measure_sweep(scale), rounds=1, iterations=1
    )
    publish_report("parallel", report)
    # The speedup is asserted inside _measure_sweep only when the hardware
    # can express it.
