"""CI smoke check: an alert storm must leave a bit-replayable incident bundle.

Drives the full incident path end to end, the way an operator would hit
it:

1. serve a small stream through the live service with a 1-iteration
   budget, under the sink chain ``repro-edge --flight 6 --slo`` builds
   (``streaming_manifest_session`` with the default rules and SLOs and a
   flight recorder): every solve is truncated → every slot misses its
   deadline → the deadline-miss storm rule and the deadline-miss SLO
   both fire;
2. assert the flight recorder dumped at least one incident bundle into
   the incident directory;
3. replay every bundle through ``repro-edge incident replay`` and
   require exit code 0 — the recorded costs, iteration counts, and
   partial flags must reproduce **bit-for-bit**;
4. tamper one recorded cost by 1e-9 and require the replay gate to exit
   nonzero with a per-field diff (the bit-identity claim is real);
5. tear the bundle's tail off and require the strict reader and the
   replay gate to refuse it, while ``strict=False`` still salvages the
   intact prefix;
6. run the same storm with the recorder and SLOs disabled and require
   zero side effects (no snapshots, no bundles, no new files, and no
   ``slo.*`` event in its telemetry manifest);
7. run the storm again with telemetry enabled and require its manifest
   to hold the ``deadline-miss`` and ``slo:deadline-miss`` alerts and
   one ``slo.burn`` firing record, and ``repro-edge watch M --once
   --strict`` to exit 1 on it; then copy one of its incident bundles
   next to the manifest (newer than it) and require ``repro-edge doctor
   DIR`` to still diagnose the manifest — exit 0, naming it, showing
   ``FIRING [deadline-miss]`` and the ``deadline-miss`` alert — and
   ``repro-edge doctor BUNDLE`` to exit 2 (a bundle is not a manifest);
8. run the storm through the cohort-aggregated controller and require
   it to dump bundles that all replay under the bit-for-bit contract as
   well (the replay report names the contract it applied).

Exit code 0 on success, 1 with a diagnostic on any mismatch.

Run:  python scripts/incident_smoke.py [--users N] [--slots T]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path


def cli(argv: list[str]) -> int:
    """Run a repro-edge command in-process; returns its exit code."""
    from repro.cli import main

    try:
        return int(main(argv) or 0)
    except SystemExit as error:
        code = error.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 1


def main(argv: list[str] | None = None) -> int:
    """Run the incident smoke; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--users", type=int, default=6)
    parser.add_argument("--slots", type=int, default=10)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)

    from repro import Scenario
    from repro.aggregate import AggregationConfig
    from repro.service import ServiceConfig, run_loadgen
    from repro.simulation.observations import (
        SystemDescription,
        observations_from_instance,
    )
    from repro.telemetry import (
        FlightRecorder,
        default_rules,
        default_slos,
        read_bundle,
        read_manifest,
        streaming_manifest_session,
    )

    instance = Scenario(
        num_users=args.users, num_slots=args.slots
    ).build(seed=args.seed)
    system = SystemDescription.from_instance(instance)
    observations = observations_from_instance(instance)

    incident_dir = Path(tempfile.mkdtemp(prefix="incident_smoke_"))
    manifest_dir = Path(tempfile.mkdtemp(prefix="incident_smoke_manifests_"))
    failures: list[str] = []

    def armed(manifest, bundle_dir, aggregation=None):
        """Serve the storm under the chain ``--flight 6 --slo`` builds."""
        with streaming_manifest_session(
            manifest,
            rules=default_rules() + default_slos(),
            recorder=FlightRecorder(6, incident_dir=bundle_dir),
        ):
            return run_loadgen(
                system,
                observations,
                ServiceConfig(aggregation=aggregation, max_iterations=1),
                speed=0,
                batch_reference=False,
            )

    # Leg 1-2: the storm must dump bundles.
    report = armed(None, incident_dir)
    if report.deadline_misses != args.slots:
        failures.append(
            f"expected every slot to miss under max_iterations=1, got "
            f"{report.deadline_misses}/{args.slots}"
        )
    if report.flight_snapshots != args.slots:
        failures.append(
            f"recorder captured {report.flight_snapshots} snapshots, "
            f"expected {args.slots}"
        )
    bundles = [Path(p) for p in report.incident_bundles]
    if not bundles:
        failures.append("the miss storm wrote no incident bundle")
    if "deadline-miss" not in report.slo_active:
        failures.append(
            f"deadline-miss SLO not firing after the storm "
            f"(active: {list(report.slo_active)})"
        )

    # Leg 3: every bundle replays bit-for-bit through the CLI gate.
    for bundle in bundles:
        code = cli(["incident", "replay", str(bundle)])
        if code != 0:
            failures.append(f"replay gate failed on {bundle} (exit {code})")

    if bundles:
        # Leg 4: a 1e-9 cost tamper must diverge.
        source = bundles[0]
        tampered = incident_dir / "tampered.jsonl"
        lines = []
        patched = False
        for line in source.read_text().splitlines():
            record = json.loads(line)
            if record.get("type") == "snapshot" and not patched:
                record["recorded"]["costs"]["total"] += 1e-9
                patched = True
            lines.append(json.dumps(record))
        tampered.write_text("\n".join(lines) + "\n")
        code = cli(["incident", "replay", str(tampered)])
        if code == 0:
            failures.append(
                "replay gate accepted a bundle with a tampered cost — the "
                "bit-identity check is not real"
            )

        # Leg 5: a torn bundle is refused strictly, salvaged leniently.
        torn = incident_dir / "torn.jsonl"
        torn.write_text("\n".join(source.read_text().splitlines()[:-2]) + "\n")
        code = cli(["incident", "replay", str(torn)])
        if code == 0:
            failures.append("replay gate accepted a truncated bundle")
        try:
            read_bundle(torn)
            failures.append("strict read accepted a truncated bundle")
        except ValueError:
            pass
        salvaged = read_bundle(torn, strict=False)
        if not salvaged.truncated or not salvaged.snapshots:
            failures.append(
                "salvage read did not recover the intact prefix of the "
                "torn bundle"
            )

    # Leg 6: recorder and SLOs off → zero side effects.
    before = sorted(incident_dir.iterdir())
    off_manifest = manifest_dir / "off.jsonl"
    with streaming_manifest_session(off_manifest):
        off_report = run_loadgen(
            system,
            observations,
            ServiceConfig(max_iterations=1),
            speed=0,
            batch_reference=False,
        )
    if off_report.flight_snapshots or off_report.incident_bundles:
        failures.append(
            "recorder-off run reports recorder activity: "
            f"{off_report.flight_snapshots} snapshots, "
            f"{list(off_report.incident_bundles)} bundles"
        )
    if sorted(incident_dir.iterdir()) != before:
        failures.append("recorder-off run wrote files into the incident dir")
    stray = [
        event["type"]
        for event in read_manifest(off_manifest).events
        if str(event.get("type", "")).startswith("slo.")
    ]
    if stray:
        failures.append(f"SLO-off run emitted {len(stray)} slo.* event(s)")

    # Leg 7: telemetry on → the storm's alerts and burn land in the manifest.
    manifest = manifest_dir / "storm.jsonl"
    armed(manifest, manifest_dir / "bundles")
    record = read_manifest(manifest)
    rules = [alert.get("rule") for alert in record.events_of_type("alert")]
    for rule in ("deadline-miss", "slo:deadline-miss"):
        if rule not in rules:
            failures.append(f"manifest lacks the {rule} alert (alerts: {rules})")
    firing = [
        burn for burn in record.events_of_type("slo.burn")
        if burn.get("state") == "firing"
    ]
    if len(firing) != 1:
        failures.append(
            f"manifest holds {len(firing)} slo.burn firing record(s), expected 1"
        )
    code = cli(["watch", str(manifest), "--once", "--strict"])
    if code != 1:
        failures.append(f"watch --strict exited {code} on the storm manifest")
    storm_bundles = sorted((manifest_dir / "bundles").glob("incident-*.jsonl"))
    if not storm_bundles:
        failures.append("the telemetry storm wrote no incident bundle")
    else:
        beside = manifest_dir / storm_bundles[0].name
        shutil.copyfile(storm_bundles[0], beside)
        newer = manifest.stat().st_mtime + 10
        os.utime(beside, (newer, newer))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli(["doctor", str(manifest_dir)])
        doctored = out.getvalue()
        if code != 0 or f"Run post-mortem - {manifest}" not in doctored:
            failures.append(
                f"doctor DIR exited {code} without diagnosing {manifest.name} "
                "(a bundle beside it must not win)"
            )
        for expected in ("FIRING [deadline-miss]", "deadline-miss: ",
                         "  [deadline-miss] (slot "):
            if expected not in doctored:
                failures.append(f"doctor DIR report lacks {expected!r}")
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli(["doctor", str(beside)])
        if code != 2:
            failures.append(f"doctor exited {code} on an incident bundle, expected 2")

    # Leg 8: the aggregated recorder's bundles replay bit-for-bit too.
    aggregated_dir = incident_dir / "aggregated"
    aggregated = armed(None, aggregated_dir, AggregationConfig())
    aggregated_bundles = [Path(p) for p in aggregated.incident_bundles]
    if not aggregated_bundles:
        failures.append("the aggregated miss storm wrote no incident bundle")
    for bundle in aggregated_bundles:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli(["incident", "replay", str(bundle)])
        print(out.getvalue(), end="")
        if code != 0:
            failures.append(f"replay gate failed on {bundle} (exit {code})")
        elif "REPRODUCED bit-for-bit" not in out.getvalue():
            failures.append(f"{bundle} replayed under a weaker contract")

    print(
        f"incident smoke: {report.slots} slots, {report.deadline_misses} "
        f"misses, {len(bundles)} bundle(s), SLOs firing: "
        f"{', '.join(report.slo_active) or 'none'}"
    )
    print(
        f"replay gate: {len(bundles)} bundle(s) reproduced bit-for-bit; "
        "tamper and truncation both refused"
    )
    print(f"manifest: {len(rules)} alert(s), {len(firing)} SLO firing")
    print(
        f"aggregated storm: {len(aggregated_bundles)} bundle(s) "
        "reproduced bit-for-bit"
    )
    if failures:
        for failure in failures:
            print(f"FAIL {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
