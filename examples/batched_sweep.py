"""Batched P2 solves on the Figure 2 sweep, in one process and on a pool.

The same sweep three ways — plain serial, lockstep-batched in one
process, and batched across a process pool — verifying the mean ratios
are *identical* (not merely close) and printing the wall clocks and the
batching telemetry. The equivalent CLI invocation is:

    repro-edge fig2 --batch-solves --workers 4

See docs/PERFORMANCE.md for how the batching works and what it buys.

Run:  python examples/batched_sweep.py
"""

import dataclasses
import time

from repro.experiments.fig2 import run_fig2
from repro.experiments.settings import ExperimentScale
from repro.telemetry import telemetry_session

HOURS = ("3pm", "4pm")


def run(scale: ExperimentScale, label: str):
    with telemetry_session() as registry:
        start = time.perf_counter()
        points = run_fig2(scale, hours=HOURS)
        wall_s = time.perf_counter() - start
    counters = registry.snapshot()["counters"]
    print(
        f"  {label:28s} {wall_s:6.2f}s"
        f"   ipm solves={counters.get('solver.ipm.solves', 0):.0f}"
        f"   batched instances={counters.get('solver.batched.instances', 0):.0f}"
    )
    return points


def main() -> None:
    base = ExperimentScale(num_users=16, num_slots=8, repetitions=2)
    print(
        f"Figure 2 sweep, hours {', '.join(HOURS)} "
        f"(users={base.num_users}, slots={base.num_slots}, "
        f"repetitions={base.repetitions}):"
    )
    plain = run(base, "serial")
    batched = run(
        dataclasses.replace(base, batch_solves=True), "batched (one process)"
    )
    pooled = run(
        dataclasses.replace(base, batch_solves=True, workers=4),
        "batched + pool (x4)",
    )

    # The accelerated paths are bit-identical, so the ratio statistics
    # must match exactly — no tolerance.
    for fast, label in ((batched, "batched"), (pooled, "batched+pool")):
        assert all(
            p.label == q.label and p.stats == q.stats
            for p, q in zip(plain, fast)
        ), f"{label} diverged from serial"
    print("\nAll three runs produced identical ratio statistics.")

    print("\nMean competitive ratios (identical across paths):")
    for point in plain:
        print(
            f"  {point.label:6s} online-approx "
            f"{point.mean_ratio('online-approx'):.3f}   "
            f"online-greedy {point.mean_ratio('online-greedy'):.3f}"
        )


if __name__ == "__main__":
    main()
