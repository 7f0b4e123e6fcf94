"""Telemetry quickstart: metrics, spans, and run manifests.

Runs a small three-algorithm comparison inside a telemetry session, then
shows the three things the session recorded (docs/OBSERVABILITY.md):

1. the metrics summary — solver iterations, per-slot wall time,
   accumulated cost components;
2. the span tree — the nested `run` / `simulate` timings per algorithm;
3. a JSON-lines run manifest — written, read back, and cross-checked
   (each run's per-slot cost events must sum to its reported breakdown).

Telemetry observes only: the ratios printed here are bit-identical to a
run without the session.

Run:  python examples/telemetry_quickstart.py
"""

import tempfile
from pathlib import Path

from repro import (
    OfflineOptimal,
    OnlineGreedy,
    OnlineRegularizedAllocator,
    Scenario,
    compare_algorithms,
    telemetry_session,
    write_manifest,
)
from repro.analysis import load_manifest, verify_manifest_costs
from repro.telemetry import render_spans


def main() -> None:
    """Run the comparison under telemetry and inspect what it recorded."""
    instance = Scenario(num_users=10, num_slots=8).build(seed=7)

    with telemetry_session() as registry:
        comparison = compare_algorithms(
            [OfflineOptimal(), OnlineGreedy(), OnlineRegularizedAllocator()],
            instance,
        )

    print("Empirical competitive ratios (unchanged by telemetry):")
    for name, ratio in comparison.ratios().items():
        print(f"  {name:15s} {ratio:.3f}")

    # 1. Metrics: every counter/gauge/histogram the run touched.
    print("\n" + registry.summary_table())

    # 2. Spans: the timing tree, one `run` root per algorithm.
    print("\nspan tree")
    print("---------")
    print(render_spans(registry.snapshot()["spans"]))

    # 3. Manifest: persist, reload, and verify the cost accounting.
    path = Path(tempfile.gettempdir()) / "telemetry_quickstart.jsonl"
    write_manifest(path, registry, config={"example": "telemetry_quickstart"})
    record = load_manifest(path)
    print(f"manifest: {path} ({len(record.events)} events)")
    for check in verify_manifest_costs(record):
        status = "ok" if check.ok(tol=1e-9) else "MISMATCH"
        print(
            f"  {check.algorithm:15s} {check.slots:3d} slots  "
            f"total {check.summed['total']:10.2f}  "
            f"deviation {check.deviation:.1e}  {status}"
        )


if __name__ == "__main__":
    main()
