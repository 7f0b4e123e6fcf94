"""Hand-built manifests for the doctor and watch report goldens.

Three synthetic ``repro.telemetry/1`` manifests with a fixed config and
environment and no wall-clock values:

* :func:`full_records` — every record kind ``doctor`` or ``watch`` reads,
  with ties, duplicates and more entries than either tool lists, ending
  in ``metrics``/``spans``/``manifest_end``; it also keeps the
  ``solver.fallback``/``solver.circuit_open`` records and the
  ``fallback-rate`` objective of releases that had a fallback solver, so
  manifests from those releases stay readable;
* :func:`truncated_records` — the same stream with ``metrics`` and
  ``manifest_end`` dropped, as a killed run leaves it;
* :func:`bare_records` — no optional feed at all, so every "none
  recorded" fallback line renders;
* :func:`killed_records` — the truncated stream with the ``partial`` and
  ``unconverged`` flags that ``solver.ipm.trace`` events carry, so the
  unconverged count survives a run killed before its ``metrics`` record.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.telemetry.manifest import MANIFEST_FORMAT

CONFIG = {
    "command": "fig2",
    "users": 6,
    "slots": 2,
    "seed": 7,
    "workers": None,
    "telemetry": "run.jsonl",
}

ENVIRONMENT = {
    "python": "3.11.7",
    "numpy": "1.26.4",
    "scipy": "1.11.4",
    "blas": "openblas",
    "cpu_count": 4,
    "repro_flags": {"REPRO_BATCH": "1"},
}

#: Slot wall times, with ties at the top to pin file-order tie-breaking.
_WALLS = [3.0, 7.5, 7.5, 1.0, 9.25, 7.5, 2.0, 9.25, 0.5, 4.0, 4.0, 6.0, 1.5]


def _start(config: dict, environment: dict) -> dict:
    return {
        "type": "manifest_start",
        "format": MANIFEST_FORMAT,
        "created_unix": 0.0,
        "config": config,
        "environment": environment,
    }


def _slots() -> list[dict]:
    records = []
    for index, wall in enumerate([*_WALLS, None]):
        run = index // 2
        record = {
            "type": "slot",
            "slot": index % 2,
            "cell": [6, run % 3],
            "run": run,
            "algorithm": "online-approx" if run % 2 == 0 else "offline-opt",
            "op": 1.0 + index,
            "sq": 0.5 * index,
            "rc": 0.25,
            "mg": 0.125 * (index % 3),
            "total": 2.0 + 1.5 * index,
        }
        if wall is not None:
            record["wall_ms"] = wall
        records.append(record)
    return records


def _events(flagged: bool = False) -> list[dict]:
    events: list[dict] = []
    slots = _slots()
    events += slots[:6]
    events += [
        {"type": "run_end", "cell": [6, run % 3], "run": run,
         "algorithm": "online-approx" if run % 2 == 0 else "offline-opt"}
        for run in range(3)
    ]
    for iterations, mu, gap, partial in (
        (9, 1e-9, 1e-10, False), (12, 2e-10, 9e-11, False),
        (7, 5e-9, 2e-10, True), (30, 3e-4, 5e-3, True),
    ):
        trace = {"type": "solver.ipm.trace", "slot": 0, "iterations": iterations,
                 "mu_final": mu, "gap_final": gap, "trace": []}
        if flagged:
            # The 7-step solve met its budget; the 30-step one never certified.
            trace.update(partial=partial, unconverged=iterations == 30)
        events.append(trace)
    events += [
        {"type": "solver.fallback", "slot": i, "primary": "ipm",
         "fallback": "scipy", "error": f"LinAlgError: singular matrix {i}"}
        for i in range(6)
    ]
    events.append(
        {"type": "solver.circuit_open", "slot": 5, "primary": "ipm",
         "failures": 3, "cooldown": 8}
    )
    for slot, gap, source in (
        (0, 1e-9, "solver"), (1, 2e-6, "lp"), (2, 2e-6, "solver"),
        (3, 5e-10, "solver"), (4, 3e-3, "lp"), (5, 2e-6, "lp"),
        (6, 1e-12, "solver"),
    ):
        events.append(
            {"type": "diag.certificate", "slot": slot, "relative_gap": gap,
             "kkt_residual": gap / 10.0, "source": source}
        )
    events += [
        {"type": "diag.ratio.point", "slot": 0, "ratio": 1.1, "bound": 2.2},
        {"type": "diag.ratio.point", "slot": 1, "ratio": 1.25, "bound": 2.2},
        {"type": "diag.ratio.violation", "slot": 5, "ratio": 2.5, "bound": 2.2},
        {"type": "diag.ratio.trace", "bound": 2.2, "final_ratio": 1.31,
         "worst_ratio": 1.45, "certified": True},
        {"type": "diag.ratio.trace", "bound": 2.2, "final_ratio": 2.41,
         "worst_ratio": 2.5, "certified": False},
        {"type": "diag.ratio.point", "slot": 2, "ratio": 1.2, "bound": 2.2},
    ]
    events += slots[6:]
    events += [
        {"type": "run_end", "cell": [6, run % 3], "run": run,
         "algorithm": "online-approx" if run % 2 == 0 else "offline-opt"}
        for run in range(3, 6)
    ]
    for cohorts, reduction, spread, bound, error in (
        (10, 5.0, 0.2, 0.4, 1e-6), (12, 4.5, 0.35, 0.7, None),
        (8, 6.0, 0.1, 0.2, 2e-6),
    ):
        record = {"type": "aggregate.slot", "slot": 0, "users": 60,
                  "cohorts": cohorts, "reduction": reduction,
                  "spread": spread, "bound": bound}
        if error is not None:
            record["disagg_error"] = error
        events.append(record)
    events.append({"type": "aggregate.rebalance", "slot": 1, "moved": 3})
    for slot, latency, miss in (
        (0, 2.0, False), (1, 9.0, True), (2, 30.0, True), (3, 4.5, False)
    ):
        events.append(
            {"type": "service.slot", "slot": slot, "latency_ms": latency,
             "deadline_miss": miss}
        )
    for slot in range(6):
        events.append(
            {"type": "service.deadline.miss", "slot": slot,
             "latency_ms": 10.0 + slot,
             "deadline_ms": None if slot == 2 else 5.0,
             "partial": slot % 2 == 0}
        )
    for slot, wall, phases in (
        (0, 10.0, {"ipm.line_search": 6.0, "ipm.assemble": 4.0}),
        (1, 12.5, {"ipm.assemble": 5.0, "spine.account": 2.5,
                   "ipm.factorize_smw": 5.0}),
        (2, 12.5, {"a.one": 1.0, "b.two": 1.0, "c.three": 1.0, "d.four": 1.0,
                   "e.five": 0.5, "ipm.line_search": 8.0}),
        (3, 3.0, {}),
    ):
        events.append(
            {"type": "prof.phases", "slot": slot, "wall_ms": wall,
             "phases": phases}
        )
    events.append(
        {"type": "parallel.fallback.inline", "error": "PicklingError: boom",
         "cells": 6, "workers": 4}
    )
    for objective, state, fast, slow in (
        ("deadline-miss", "firing", 25.0, 9.0),
        ("latency-p99", "firing", 14.0, 3.5),
        ("latency-p99", "resolved", 0.5, 1.0),
        ("fallback-rate", "firing", 40.0, 12.25),
    ):
        events.append(
            {"type": "slo.burn", "objective": objective, "state": state,
             "fast_burn": fast, "slow_burn": slow, "budget": 0.01}
        )
    events += [
        {"type": "incident.written", "path": "bundles/incident-000-a.jsonl",
         "rule": "deadline-miss", "snapshots": 4},
        {"type": "incident.written", "path": "bundles/incident-001-b.jsonl",
         "reason": "manual", "snapshots": 2},
        {"type": "incident.written", "path": "bundles/incident-000-a.jsonl",
         "rule": "deadline-miss", "snapshots": 4},
    ]
    events += [
        {"type": "alert", "rule": "deadline-miss", "slot": 3,
         "message": "3 deadline misses in 25 slots", "value": 3, "threshold": 3},
        {"type": "alert", "rule": "slo:deadline-miss",
         "message": "deadline-miss burning 25.0x fast"},
        {"type": "alert", "rule": "certificate-gap", "slot": 4,
         "message": "recorded certificate gap"},
        {"type": "alert", "rule": "solver-stall", "slot": 9,
         "message": "slot wall time 500.0 ms exceeds 8 x p95"},
        {"type": "alert", "rule": "deadline-miss", "slot": 5,
         "message": "5 deadline misses in 25 slots"},
        {"type": "alert", "rule": "slo:fallback-rate", "slot": 5,
         "message": "fallback-rate burning 40.0x fast"},
        {"type": "alert", "rule": "ratio-over-bound", "slot": 5,
         "message": "ratio 2.5 over bound 2.2"},
    ]
    return events


def _metrics() -> dict:
    return {
        "type": "metrics",
        "counters": {
            "service.slots": 4,
            "service.protocol.rejected": 1,
            "service.updates.superseded": 2,
            "service.deadline.misses": 6,
            "service.deadline.partial_solves": 3,
            "sweep.cells": 6,
            "parallel.fallback.inline": 1,
            "watchdog.suppressed": 2,
            "flight.snapshots": 12,
            "solver.ipm.unconverged": 2,
        },
        "gauges": {
            "sweep.workers": 4,
            "slo.burn.fast.deadline-miss": 25.0,
            "slo.burn.slow.deadline-miss": 9.0,
            "slo.burn.fast.fallback-rate": 40.0,
        },
        "histograms": {
            "slot.wall_ms": {"count": 13, "total": 62.0, "min": 0.5,
                             "max": 9.25, "mean": 4.77, "p50": 4.0,
                             "p95": 9.25, "p99": 9.25},
            "service.slot_latency_ms": {"count": 4, "total": 45.5, "min": 2.0,
                                        "max": 30.0, "mean": 11.375,
                                        "p50": 4.5, "p95": 30.0, "p99": None},
            "sweep.cell_wall_s": {"count": 6, "p50": 0.5, "p95": 1.25},
        },
    }


def full_records(flagged: bool = False) -> list[dict]:
    """Every record kind either tool reads, in a complete manifest."""
    events = _events(flagged)
    return [
        _start(CONFIG, ENVIRONMENT),
        *events,
        _metrics(),
        {"type": "spans", "spans": []},
        {"type": "manifest_end", "events": len(events)},
    ]


def truncated_records(flagged: bool = False) -> list[dict]:
    """:func:`full_records` without its ``metrics`` and ``manifest_end``."""
    return [
        record
        for record in full_records(flagged)
        if record["type"] not in ("metrics", "manifest_end")
    ]


def killed_records() -> list[dict]:
    """:func:`truncated_records` with flagged ``solver.ipm.trace`` events."""
    return truncated_records(flagged=True)


def bare_records() -> list[dict]:
    """No optional feed: only untimed slots and one finished run."""
    slots = [
        {"type": "slot", "slot": slot, "run": 0, "algorithm": "online-approx",
         "op": 1.0, "sq": 1.0, "rc": 0.0, "mg": 0.0, "total": 2.0}
        for slot in range(2)
    ]
    events = [*slots, {"type": "run_end", "run": 0, "algorithm": "online-approx"}]
    return [
        _start({}, {}),
        *events,
        {"type": "metrics", "counters": {}, "gauges": {}, "histograms": {}},
        {"type": "spans", "spans": []},
        {"type": "manifest_end", "events": len(events)},
    ]


def write_records(path: Path, records: list[dict]) -> Path:
    """Write ``records`` as a JSON-lines file at ``path``."""
    path.write_text("".join(json.dumps(record) + "\n" for record in records))
    return path
