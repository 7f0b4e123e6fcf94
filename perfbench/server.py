"""The allocation server under test, run in its own process.

Loads a pickled system description written by the benchmark, builds the
program's :class:`repro.service.AllocationSession` behind its TCP
:class:`repro.service.AllocationServer` (the same objects and telemetry
scope ``repro-edge serve`` uses), prints ``ready PORT`` and serves until its
standard input closes. It then prints one ``bye {...}`` JSON line with its
peak RSS and service counters.

With ``--spans PATH`` it is the traced server: span wrappers and the phase
timers are installed before the session is built, and the spans and phase
totals are written to PATH at exit.

Run from the repository root::

    python3 perfbench/server.py --system SYSTEM.pkl --mode direct
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import functools
import json
import pickle
import resource
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

#: Counters the benchmark reads back from the server's registry.
COUNTERS = (
    "service.protocol.rejected",
    "solver.fallbacks",
    "solver.circuit_breaker.opened",
    "solver.partial.attached_repair",
    "aggregate.slots",
    "aggregate.warm_cohort_hits",
)


#: Stream line limit of the listener. ``AllocationServer`` listens with
#: asyncio's default of 64 KiB, which resets the connection on a 100k-user
#: update (about 634 kB); this process raises the limit so serve-city runs.
LINE_LIMIT = 1 << 24


async def _serve(server) -> None:
    asyncio.start_server = functools.partial(asyncio.start_server, limit=LINE_LIMIT)
    loop = asyncio.get_running_loop()
    closed = asyncio.Event()

    def watch_stdin() -> None:
        sys.stdin.buffer.read()
        loop.call_soon_threadsafe(closed.set)

    threading.Thread(target=watch_stdin, daemon=True).start()
    await server.start()
    print(f"ready {server.port}", flush=True)
    await closed.wait()
    await server.stop()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--system", required=True, help="pickled SystemDescription")
    parser.add_argument("--mode", choices=("direct", "city"), required=True)
    parser.add_argument("--max-iterations", type=int, default=None)
    parser.add_argument("--spans", default=None, help="traced run: write spans here")
    args = parser.parse_args(argv)

    from repro.service import AllocationServer, AllocationSession
    from repro.telemetry import MetricsRegistry, profiling_session, telemetry_session
    from workloads import service_config

    with open(args.system, "rb") as handle:
        system = pickle.load(handle)
    recorder = None
    if args.spans:
        import tracing

        recorder = tracing.SpanRecorder()
        tracing.install_slot_path(recorder)
    profile = (
        profiling_session(hz=None, emit=False)
        if recorder is not None
        else contextlib.nullcontext()
    )
    registry = MetricsRegistry(max_events=0)
    with telemetry_session(registry), profile as prof:
        session = AllocationSession(
            system, service_config(args.mode, args.max_iterations)
        )
        asyncio.run(_serve(AllocationServer(session, port=0)))
    if recorder is not None:
        Path(args.spans).write_text(
            json.dumps({"spans": recorder.spans, "phases": prof.phase_folded})
        )
    usage = resource.getrusage(resource.RUSAGE_SELF)
    print(
        "bye "
        + json.dumps(
            {
                "maxrss_kb": usage.ru_maxrss,
                "counters": {name: registry.counter(name).value for name in COUNTERS},
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
