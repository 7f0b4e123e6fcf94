"""Figure 5: synthetic random-walk mobility, varying the number of users.

The paper generates user movement as a uniform random walk on the metro
graph (stay or move to a neighbor station, all equally likely), varies the
number of users from 40 to 1000, and compares online-approx against
offline-opt and online-greedy. Expected shape: online-approx stays ~1.1
regardless of the number of users, while online-greedy reaches up to ~1.8.
"""

from __future__ import annotations

from ..baselines import OfflineOptimal, OnlineGreedy
from ..core.regularization import OnlineRegularizedAllocator
from ..mobility.random_walk import RandomWalkMobility
from ..simulation.scenario import Scenario
from ..topology.metro import rome_metro_topology
from .runner import RatioPoint, ratio_table, run_ratio_sweep
from .settings import ExperimentScale, aggregation_config

#: The paper sweeps 40..1000 users; the default laptop scale trims the tail.
PAPER_USER_COUNTS = (40, 100, 200, 400, 600, 800, 1000)
DEFAULT_USER_COUNTS = (10, 20, 40)


def run_fig5(
    scale: ExperimentScale | None = None,
    *,
    user_counts: tuple[int, ...] = DEFAULT_USER_COUNTS,
    stay_bias: float = 0.0,
) -> list[RatioPoint]:
    """One RatioPoint per user count, random-walk mobility.

    ``stay_bias = 0`` is the paper's uniform walk (stay or move to any
    neighbor with equal probability). A positive bias makes users dwell for
    several slots (a metro hop takes more than one one-minute slot), which
    is the regime where greedy's myopia becomes expensive; the benchmark
    reports both series (see EXPERIMENTS.md).
    """
    scale = scale or ExperimentScale()
    topology = rome_metro_topology()
    mobility = RandomWalkMobility(topology, stay_bias=stay_bias)
    cases = [
        (
            f"users={num_users}",
            Scenario(
                topology=topology,
                mobility=mobility,
                num_users=num_users,
                num_slots=scale.num_slots,
                workload_distribution="power",
            ),
            [
                OfflineOptimal(),
                OnlineGreedy(),
                OnlineRegularizedAllocator(
                    eps1=scale.eps,
                    eps2=scale.eps,
                    aggregation=aggregation_config(scale),
                ),
            ],
            scale.seed + 1000 * k,
        )
        for k, num_users in enumerate(user_counts)
    ]
    return run_ratio_sweep(
        cases,
        repetitions=scale.repetitions,
        workers=scale.workers,
        keep_schedules=scale.keep_schedules,
        batch_solves=scale.batch_solves,
    )


def fig5_report(points: list[RatioPoint]) -> str:
    """The Figure 5 table plus the stability headline."""
    lines = [
        "Figure 5 - random-walk mobility, varying number of users",
        ratio_table(points, axis_name="users"),
        "",
    ]
    approx = [p.mean_ratio("online-approx") for p in points]
    greedy = [p.mean_ratio("online-greedy") for p in points]
    lines.append(
        f"online-approx ratio range: [{min(approx):.3f}, {max(approx):.3f}] "
        "(paper: ~1.1, stable in the number of users)"
    )
    lines.append(
        f"online-greedy ratio range: [{min(greedy):.3f}, {max(greedy):.3f}] "
        "(paper: up to 1.8)"
    )
    return "\n".join(lines)
