"""A fixed workload that gauges how fast the machine is running right now.

The benchmark runs on shared machines whose speed drifts by tens of
percent over minutes, as other tenants come and go; a slow spell can cover
a whole run. Each run therefore times this kernel, which touches none of
the program's code, several times while the program is idle, and reports
its time metrics at the speed the kernel had on the reference machine:
``raw * REFERENCE_MS / fastest_kernel_ms``. Both sides are the fastest the
run saw: the passes' best-of times and the kernel's best gauge. A change
to the program moves those metrics as much as it moves the raw times; a
slow spell over the whole run moves both sides, and cancels.

The kernel mixes what the serving and sweep paths spend their time on:
JSON decoding, small dense linear solves, interpreter-bound Python, and
elementwise passes over a 100k x 15 array. Run from the repository root to
see its time on this machine::

    python3 perfbench/calibrate.py
"""

from __future__ import annotations

import json
import time
from functools import lru_cache

import numpy as np

#: The kernel's best-of time on the reference machine (2-vCPU x86_64 VM,
#: Python 3.11, NumPy 2.4 with scipy-openblas). Only a unit: it scales the
#: reported metrics, never the comparison between two runs.
REFERENCE_MS = 60.0
#: Kernel repeats per gauge; the fastest counts, as for the passes.
REPEATS = 3


@lru_cache(maxsize=1)
def _inputs():
    rng = np.random.default_rng(0)
    text = json.dumps({"values": rng.random(20_000).tolist()})
    matrix = rng.random((60, 60)) + 60.0 * np.eye(60)
    array = rng.random((100_000, 15))
    return text, matrix, array


def kernel() -> float:
    """One run of the fixed workload; returns a checksum."""
    text, matrix, array = _inputs()
    values = np.asarray(json.loads(text)["values"])
    block = matrix
    for _ in range(100):
        block = np.linalg.solve(matrix, block)
    total = 0
    counts: dict[int, int] = {}
    for index in range(60_000):
        total += index * index
        counts[index & 63] = counts.get(index & 63, 0) + 1
    work = array
    for _ in range(4):
        work = np.sqrt(work + 1.0)
        work = work - work.mean(axis=0)
    return float(values.sum() + block[0, 0] + total + len(counts) + work[0, 0])


def gauge(repeats: int = REPEATS) -> float:
    """The kernel's fastest time over ``repeats`` runs, in ms."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        kernel()
        best = min(best, (time.perf_counter() - start) * 1000.0)
    return best


def scale(gauges: list[float]) -> float:
    """Factor that puts a run's best-of times at reference speed."""
    return REFERENCE_MS / min(gauges)


if __name__ == "__main__":
    kernel()
    print(f"kernel {gauge(10):.2f} ms (reference {REFERENCE_MS:g} ms)")
