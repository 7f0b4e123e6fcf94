"""Live watching: stream a run's manifest and tail it while it runs.

One process, two threads, the full streaming stack:

* a worker thread runs a three-algorithm comparison inside
  :func:`repro.telemetry.streaming_manifest_session` — every slot event
  is appended to the manifest file as it happens, the default alert
  rules scan the stream for anomalies, and nothing accumulates in
  memory (``max_events=0``);
* the main thread tails the growing file with the same machinery behind
  ``repro-edge watch`` (:class:`repro.telemetry.ManifestTail` feeding a
  :class:`repro.telemetry.WatchState`) and renders dashboard frames
  until the ``manifest_end`` record lands.

Afterwards the finalized manifest is read back, its cost accounting is
verified, and the span tree is exported as a Chrome ``trace_event`` file
(load it in ``chrome://tracing`` or https://ui.perfetto.dev).

In real use the two sides are separate processes (``--telemetry``
always streams, through the same session)::

    repro-edge fig2 --telemetry run.jsonl --watchdog   # terminal 1
    repro-edge watch run.jsonl --strict                # terminal 2

Run:  python examples/live_watch.py
"""

import tempfile
import threading
import time
from pathlib import Path

from repro import (
    OfflineOptimal,
    OnlineGreedy,
    OnlineRegularizedAllocator,
    Scenario,
    compare_algorithms,
)
from repro.analysis import load_manifest, verify_manifest_costs
from repro.telemetry import (
    ManifestTail,
    WatchState,
    default_rules,
    streaming_manifest_session,
    write_chrome_trace,
)


def run_comparison(path: Path) -> None:
    """Worker: run the comparison, streaming telemetry into ``path``."""
    instance = Scenario(num_users=10, num_slots=8).build(seed=7)
    with streaming_manifest_session(
        path,
        config={"example": "live_watch"},
        flush_interval_s=0.05,  # tight flushes so the tail sees slots early
        rules=default_rules(),
    ):
        compare_algorithms(
            [OfflineOptimal(), OnlineGreedy(), OnlineRegularizedAllocator()],
            instance,
        )


def main() -> None:
    """Stream a run into a manifest and watch it live from another thread."""
    path = Path(tempfile.gettempdir()) / "live_watch.jsonl"
    path.unlink(missing_ok=True)

    worker = threading.Thread(target=run_comparison, args=(path,))
    worker.start()

    # Tail the file the worker is writing. This is what `repro-edge watch`
    # does, unrolled so the pieces are visible.
    tail = ManifestTail(path)
    state = WatchState()
    frame = 0
    while not state.done:
        state.update_all(tail.poll())
        frame += 1
        print(f"--- frame {frame} " + "-" * 48)
        print(state.render(title=str(path)))
        time.sleep(0.1)
    worker.join()

    # The finalized manifest is a complete, verifiable run record.
    record = load_manifest(path)
    checks = verify_manifest_costs(record)
    print(f"\nfinalized: {len(record.events)} events, "
          f"{len(checks)} runs cost-verified")

    trace_path = path.with_suffix(".trace.json")
    write_chrome_trace(trace_path, record.spans)
    print(f"chrome trace: {trace_path} (open in chrome://tracing)")


if __name__ == "__main__":
    main()
