"""CI smoke check: streaming telemetry must not change results.

Runs the same seeded comparison twice — once under the zero-overhead
:class:`repro.telemetry.NullRegistry` default, once inside a
:func:`repro.telemetry.streaming_manifest_session` with the default
alert rules enabled and ``max_events=0`` (the memory-bounded live mode) — and
enforces the observe-only contract:

* every algorithm's total cost is identical across the two runs to
  1e-9 relative (telemetry never perturbs the numbers);
* the streamed manifest passes
  :func:`repro.analysis.verify_manifest_costs` (per-slot events sum to
  each run's ``run_end`` totals);
* the wall-time delta is printed as an advisory (shared CI runners are
  too noisy to gate on), so overhead creep is visible in the job log.

A third **profiled** leg re-runs the streamed comparison inside
:func:`repro.telemetry.profiling_session` (phase timers + the 19 hz
sampling profiler) and extends the contract:

* profiled costs stay identical to the bare run to the same 1e-9;
* the profiled manifest carries ``prof.*`` events, the non-profiled one
  carries **none** (profiling-off leaves the manifest clean — the
  byte-level twin of the zero-overhead gate);
* sampler overhead is printed as an advisory next to the streaming one.

A fourth **recorded** leg re-runs the streamed comparison with the
incident flight recorder and the SLO burn-rate plane armed
(:mod:`repro.telemetry.flight` / :mod:`repro.telemetry.alerting`):

* recorded costs stay identical to the bare run to the same 1e-9 (the
  recorder snapshots solve inputs, it never perturbs the solve);
* the recorded manifest carries a positive ``flight.snapshots`` counter;
* the recorder-off manifests carry **zero** ``incident.*`` / ``slo.*``
  events — recorder off leaves the manifest clean.

Exit code 0 on success, 1 with a diagnostic on any mismatch.

Run:  python scripts/telemetry_overhead.py [--users N] [--slots T]
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from pathlib import Path

#: Relative tolerance on cost identity between the two runs. Both runs
#: execute the same deterministic code path, so this is a bit-identity
#: check with float-printing headroom, not a noise allowance.
COST_RTOL = 1e-9


#: Sampling-profiler frequency for the profiled leg (the CLI default:
#: co-prime with periodic slot work, so samples don't alias).
PROFILE_HZ = 19.0


def run_once(
    instance,
    stream_path: Path | None,
    *,
    profile: bool = False,
    record_flights: bool = False,
) -> tuple[dict[str, float], float]:
    """One seeded comparison; returns (total cost per algorithm, wall s)."""
    import contextlib

    from repro import (
        OfflineOptimal,
        OnlineGreedy,
        OnlineRegularizedAllocator,
        compare_algorithms,
    )
    from repro.telemetry import (
        FlightRecorder,
        default_rules,
        default_slos,
        profiling_session,
        streaming_manifest_session,
    )

    algorithms = [OfflineOptimal(), OnlineGreedy(), OnlineRegularizedAllocator()]
    recorder = FlightRecorder(8) if record_flights else None
    start = time.perf_counter()
    if stream_path is None:
        comparison = compare_algorithms(algorithms, instance)
    else:
        with streaming_manifest_session(
            stream_path,
            config={"check": "telemetry_overhead"},
            rules=default_rules() + (default_slos() if record_flights else ()),
            recorder=recorder,
        ):
            scope = (
                profiling_session(hz=PROFILE_HZ)
                if profile
                else contextlib.nullcontext()
            )
            with scope:
                comparison = compare_algorithms(algorithms, instance)
    wall = time.perf_counter() - start
    costs = {
        name: result.total_cost for name, result in comparison.results.items()
    }
    return costs, wall


def main(argv: list[str] | None = None) -> int:
    """Run the overhead check; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--users", type=int, default=10)
    parser.add_argument("--slots", type=int, default=8)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)

    from repro import Scenario
    from repro.analysis import load_manifest, verify_manifest_costs

    instance = Scenario(
        num_users=args.users, num_slots=args.slots
    ).build(seed=args.seed)

    manifest = Path(tempfile.gettempdir()) / "telemetry_overhead.jsonl"
    profiled_manifest = (
        Path(tempfile.gettempdir()) / "telemetry_overhead_profiled.jsonl"
    )
    recorded_manifest = (
        Path(tempfile.gettempdir()) / "telemetry_overhead_recorded.jsonl"
    )
    manifest.unlink(missing_ok=True)
    profiled_manifest.unlink(missing_ok=True)
    recorded_manifest.unlink(missing_ok=True)

    bare_costs, bare_wall = run_once(instance, None)
    streamed_costs, streamed_wall = run_once(instance, manifest)
    profiled_costs, profiled_wall = run_once(
        instance, profiled_manifest, profile=True
    )
    recorded_costs, recorded_wall = run_once(
        instance, recorded_manifest, record_flights=True
    )

    failures = []
    for name, bare in bare_costs.items():
        for label, other_costs in (
            ("streamed", streamed_costs),
            ("profiled", profiled_costs),
            ("recorded", recorded_costs),
        ):
            other = other_costs.get(name)
            if other is None:
                failures.append(f"{name}: missing from the {label} run")
                continue
            scale = max(1.0, abs(bare))
            if abs(other - bare) > COST_RTOL * scale:
                failures.append(
                    f"{name}: bare {bare!r} != {label} {other!r} "
                    f"(delta {abs(other - bare):.3e})"
                )

    record = load_manifest(manifest)
    try:
        checks = verify_manifest_costs(record)
    except ValueError as error:
        failures.append(f"manifest verification: {error}")
        checks = []
    for check in checks:
        if not check.ok(COST_RTOL):
            failures.append(
                f"manifest run {check.key}: slot events deviate from "
                f"run_end totals by {check.deviation:.3e}"
            )

    # The profiling-off gate: a run without --profile must leave zero
    # prof.* events (and no trace ids) in its manifest — profiling off is
    # not merely cheap, it is absent.
    stray = [
        event
        for event in record.events
        if str(event.get("type", "")).startswith("prof.")
        or "trace_id" in event
    ]
    if stray:
        failures.append(
            f"non-profiled manifest carries {len(stray)} prof.*/traced "
            f"event(s); first: {stray[0]}"
        )
    profiled_record = load_manifest(profiled_manifest)
    profiled_events = [
        event
        for event in profiled_record.events
        if str(event.get("type", "")).startswith("prof.")
    ]
    if not profiled_events:
        failures.append("profiled manifest carries no prof.* events")

    # The recorder-off gate: manifests from runs without the flight
    # recorder / SLO plane must carry zero incident.* / slo.* events.
    for label, clean_record in (
        ("streamed", record),
        ("profiled", profiled_record),
    ):
        stray_incident = [
            event
            for event in clean_record.events
            if str(event.get("type", "")).startswith(("incident.", "slo."))
        ]
        if stray_incident:
            failures.append(
                f"recorder-off {label} manifest carries "
                f"{len(stray_incident)} incident.*/slo.* event(s); "
                f"first: {stray_incident[0]}"
            )
    recorded_record = load_manifest(recorded_manifest)
    snapshots_taken = int(recorded_record.counters.get("flight.snapshots", 0))
    if snapshots_taken <= 0:
        failures.append(
            "recorded manifest carries no flight.snapshots counter — the "
            "recorder leg did not actually record"
        )

    overhead = streamed_wall - bare_wall
    pct = 100.0 * overhead / bare_wall if bare_wall > 0 else float("nan")
    print(
        f"telemetry overhead (advisory): bare {bare_wall:.3f}s, "
        f"streamed {streamed_wall:.3f}s, delta {overhead:+.3f}s ({pct:+.1f}%)"
    )
    sampler_overhead = profiled_wall - streamed_wall
    sampler_pct = (
        100.0 * sampler_overhead / streamed_wall
        if streamed_wall > 0
        else float("nan")
    )
    print(
        f"profiler overhead (advisory): profiled {profiled_wall:.3f}s at "
        f"{PROFILE_HZ:g} hz, delta vs streamed {sampler_overhead:+.3f}s "
        f"({sampler_pct:+.1f}%)"
    )
    recorder_overhead = recorded_wall - streamed_wall
    recorder_pct = (
        100.0 * recorder_overhead / streamed_wall
        if streamed_wall > 0
        else float("nan")
    )
    print(
        f"recorder overhead (advisory): recorded {recorded_wall:.3f}s, "
        f"delta vs streamed {recorder_overhead:+.3f}s ({recorder_pct:+.1f}%)"
    )
    print(
        f"costs identical to {COST_RTOL:g} across "
        f"{len(bare_costs)} algorithms x 3 legs: {not failures}"
    )
    print(
        f"manifest: {len(record.events)} events, {len(checks)} runs verified; "
        f"profiled manifest: {len(profiled_events)} prof.* events; "
        f"recorded manifest: {snapshots_taken} flight snapshots"
    )
    if failures:
        for failure in failures:
            print(f"FAIL {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
