"""ABL-SCALE — wall-clock scaling of the online algorithm in the user count.

Not a paper figure: this quantifies the cost of one full online run
(T slots of P2 solves with the structured IPM) as the system grows, which
is what a deployment would care about. Expect roughly linear-to-quadratic
growth in the number of users at fixed cloud count.
"""

import time

from repro.core.regularization import OnlineRegularizedAllocator
from repro.experiments.report import format_table
from repro.simulation.scenario import Scenario
from repro.solvers.interior_point import InteriorPointBackend

from ._util import publish_report


def _run_once(num_users, scale):
    instance = Scenario(num_users=num_users, num_slots=scale.num_slots).build(
        seed=scale.seed
    )
    algorithm = OnlineRegularizedAllocator(backend=InteriorPointBackend())
    start = time.perf_counter()
    schedule = algorithm.run(instance)
    elapsed = time.perf_counter() - start
    assert schedule.is_feasible(instance, tol=1e-5)
    return elapsed


def test_scaling_in_users(benchmark, scale):
    counts = [scale.num_users, 2 * scale.num_users, 4 * scale.num_users]

    def sweep():
        return {n: _run_once(n, scale) for n in counts}

    timings = benchmark.pedantic(sweep, rounds=1, iterations=1)

    rows = [
        [f"J={n}", f"{seconds:.2f}s", f"{seconds / scale.num_slots * 1000:.0f} ms/slot"]
        for n, seconds in timings.items()
    ]
    report = "\n".join(
        [
            "ABL-SCALE - online-approx wall clock vs user count "
            f"(I=15, T={scale.num_slots}, structured IPM)",
            format_table(["users", "total", "per slot"], rows),
        ]
    )
    publish_report("scaling", report)
