"""Pure helpers for the benchmark: percentiles, ladder rules, self times.

Nothing here imports the program under test, so the helpers are unit
tested on synthetic data (``perfbench/tests/test_stats.py``).
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence

#: A tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10


def nearest_rank(values: Sequence[float], fraction: float) -> float:
    """Exact nearest-rank percentile (``fraction`` in (0, 1])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sequence")
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    """Nearest-rank median."""
    return nearest_rank(values, 0.5)


def tail(values: Sequence[float], beyond: int = TAIL_BEYOND) -> tuple[float, float, int]:
    """The highest percentile with at least ``beyond`` samples above it.

    Returns ``(value, percentile, samples_beyond)``. With ``n`` samples the
    percentile sits at rank ``n - beyond``. When that rank falls below the
    median (fewer than ``2 * beyond`` samples) no such tail exists, and the
    maximum is returned with ``percentile == 1.0`` and no samples beyond.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail of an empty sequence")
    rank = n - beyond
    if rank < math.ceil(n / 2):
        return ordered[-1], 1.0, 0
    return ordered[rank - 1], rank / n, beyond


def best_of(passes: Iterable[Mapping]) -> dict:
    """Each key's smallest value over several passes of the same work.

    The machine the benchmark runs on may be shared, and its speed drifts
    by tens of percent over seconds to minutes; another tenant only ever
    adds time. The fastest of several repeats of one item is therefore a
    much steadier estimate of the program's own time than any one repeat
    (the rule ``timeit`` applies). Keys missing from a pass are skipped.
    """
    best: dict = {}
    for values in passes:
        for key, value in values.items():
            if key not in best or value < best[key]:
                best[key] = value
    return best


def backlog_grows(latencies: Sequence[float], period: float) -> bool:
    """Whether an open-loop queue kept growing over a phase.

    Under overload each update waits for all the ones before it, so the
    latency climbs by (service time - period) per update. The backlog is
    judged to grow when the median latency of the second half of the phase
    exceeds that of the first half by more than half a period.
    """
    n = len(latencies)
    if n < 4:
        return False
    first = median(latencies[: n // 2])
    second = median(latencies[n // 2 :])
    return second - first > 0.5 * period


def rung_passes(latencies: Sequence[float], period: float, failed: int) -> bool:
    """The rate-ladder rule for one rung.

    A rung passes when every update was answered correctly, its tail latency
    is within one slot period (a decision that arrives after the next update
    is useless), and the backlog did not grow.
    """
    if failed or not latencies:
        return False
    value, _, _ = tail(latencies)
    return value <= period and not backlog_grows(latencies, period)


def self_times(spans: Iterable[Mapping]) -> dict[str, float]:
    """Total self time per span name, in the spans' time unit.

    Each span is a mapping with ``name``, ``start``, ``end`` and ``parent``
    (the index of its parent span in the same list, or ``None``). A span's
    self time is its duration minus the durations of its direct children;
    children of one span run on its thread, so they never overlap.
    """
    spans = list(spans)
    child_time = [0.0] * len(spans)
    for span in spans:
        parent = span["parent"]
        if parent is not None:
            child_time[parent] += span["end"] - span["start"]
    totals: dict[str, float] = {}
    for index, span in enumerate(spans):
        own = span["end"] - span["start"] - child_time[index]
        totals[span["name"]] = totals.get(span["name"], 0.0) + own
    return totals


def relative_gap(value: float, reference: float) -> float:
    """``|value - reference|`` relative to ``max(1, |reference|)``."""
    return abs(value - reference) / max(1.0, abs(reference))
