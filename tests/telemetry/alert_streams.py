"""Fixture event streams for the alerting goldens.

Plain record lists, no engine imports: the same streams were replayed
through the watchdog/SLO engines at commit 86b6b2f to record the golden
alert sequences in ``test_alert_goldens.py``. The storm and burn streams
that then carried ``solver.fallback`` records (a retired signal) carry
deadline misses instead, at the same positions.
"""

from __future__ import annotations


def slots(count: int, wall_ms: float = 1.0, start: int = 0) -> list[dict]:
    """``count`` uniform ``slot`` records."""
    return [
        {"type": "slot", "slot": start + index, "wall_ms": wall_ms}
        for index in range(count)
    ]


def service_slots(count, *, miss=False, latency_ms=1.0, start=0) -> list[dict]:
    """``count`` uniform ``service.slot`` records."""
    return [
        {
            "type": "service.slot",
            "slot": start + index,
            "latency_ms": latency_ms,
            "deadline_miss": miss,
            "partial": miss,
        }
        for index in range(count)
    ]


def miss(slot: int) -> dict:
    """One ``service.deadline.miss`` record."""
    return {"type": "service.deadline.miss", "slot": slot, "latency_ms": 9.0}


def certificate(slot: int, gap: float) -> dict:
    """One ``diag.certificate`` record."""
    return {"type": "diag.certificate", "slot": slot, "relative_gap": gap}


def two_miss_storms() -> list[dict]:
    """100 slots; deadline misses at slots 2-4 and 70-72.

    Each miss record precedes the ``slot`` record of its slot, so the
    storm window sees it on the same slot clock as the retired fallback
    records it replaces.
    """
    records = []
    for index in range(100):
        if 2 <= index <= 4 or 70 <= index <= 72:
            records.append(miss(index))
        records.append({"type": "slot", "slot": index, "wall_ms": 1.0})
    return records


def mixed_stream() -> list[dict]:
    """One run that trips every rule and objective, in spine order.

    100 slots with: a stalled slot 30, a certificate gap at slot 40, a
    ratio violation at slot 45 (point plus explicit violation record) and
    deadline misses at slots 60-63. Every slot also carries its
    ``service.slot`` record.
    """
    records = []
    for index in range(100):
        wall = 500.0 if index == 30 else 1.0
        records.append({"type": "slot", "slot": index, "wall_ms": wall})
        records.append(certificate(index, 1e-3 if index == 40 else 1e-9))
        ratio = 2.5 if index == 45 else 1.2
        records.append(
            {"type": "diag.ratio.point", "slot": index, "ratio": ratio, "bound": 2.0}
        )
        if index == 45:
            records.append(
                {"type": "diag.ratio.violation", "slot": index, "ratio": ratio,
                 "bound": 2.0}
            )
        late = 60 <= index <= 63
        if late:
            records.append(miss(index))
        records.append(
            {"type": "service.slot", "slot": index, "latency_ms": wall,
             "deadline_miss": late, "partial": late}
        )
    return records


#: Streams replayed through a rule engine without a cooldown. Keys are the
#: case ids of ``ENGINE_GOLDENS``.
ENGINE_STREAMS = {
    "stall-after-warmup": slots(20) + [{"type": "slot", "slot": 20, "wall_ms": 500.0}],
    "stall-warmup-silent": slots(5) + [{"type": "slot", "slot": 5, "wall_ms": 500.0}],
    "stall-ordinary": slots(100),
    "miss-storm-once": [miss(0) for _ in range(4)],
    "miss-spread": [
        record
        for batch in range(3)
        for record in slots(50, start=batch * 50) + [miss(batch * 50 + 50)]
    ],
    "certificate-gap": [certificate(1, 1e-9), certificate(2, 1e-3)],
    "ratio-point": [
        {"type": "diag.ratio.point", "slot": 3, "ratio": 1.2, "bound": 2.0},
        {"type": "diag.ratio.point", "slot": 4, "ratio": 2.5, "bound": 2.0},
    ],
    "ratio-violation": [
        {"type": "diag.ratio.violation", "slot": 1, "ratio": 2.1, "bound": 2.0}
    ],
    "alert-not-reevaluated": [
        {"type": "alert", "rule": "solver-stall", "message": "m"}
    ],
    "alerts-accumulate": [certificate(0, 1.0), certificate(1, 1.0)],
    "deadline-fires-once": [
        slots(1)[0], miss(0), slots(1, start=1)[0], miss(1), miss(1)
    ],
    "deadline-age-out": [miss(0), *slots(5), miss(5)],
    "deadline-threshold-one": [miss(0), *slots(4), miss(4)],
    "deadline-default": [slots(1)[0], miss(0), slots(1, start=1)[0], miss(1)],
    "two-miss-storms": two_miss_storms(),
    "mixed": mixed_stream(),
}

#: Streams replayed through burn-rate objectives. Keys are the case ids
#: of ``BURN_GOLDENS``.
BURN_STREAMS = {
    "all-good": service_slots(100),
    "storm-resolves": service_slots(8, miss=True)
    + service_slots(16, miss=False, start=8),
    "short-blip": service_slots(3, miss=True),
    "slow-window-gates": service_slots(16) + service_slots(8, miss=True, start=16),
    "latency": service_slots(4, latency_ms=50.0),
    "miss-burn": service_slots(4, miss=True),
    "miss-clears": service_slots(1, miss=True) + service_slots(1, start=1),
    "ratio-bound": [
        {"type": "diag.ratio.point", "slot": 3, "ratio": 1.4, "bound": 1.3}
    ],
    "unknown-records": [{"type": "spans"}, {}],
    "mixed": mixed_stream(),
}

#: Streams replayed through the alerting sink (cooldown applied), fed via
#: a bound registry. Keys are the case ids of ``SINK_GOLDENS``.
SINK_STREAMS = {
    "cooldown": [
        record
        for index in range(10)
        for record in (slots(1, start=index)[0], certificate(index, 1.0))
    ],
    "mixed": mixed_stream(),
}
