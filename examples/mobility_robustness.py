""""Arbitrary user mobility": the same algorithm under four movement laws.

The paper's central claim is that its guarantee needs no mobility
assumptions. This example runs online-approx (and greedy) under four
structurally different mobility processes — smooth taxi trips, the paper's
uniform metro walk, a lazy Markov walk, heavy-tailed Levy flights — then
prints the trace statistics, the ratio table, and the dual "congestion
rents" the interior-point solver exposes for the busiest process.

Run:  python examples/mobility_robustness.py
"""

import numpy as np

from repro import OnlineRegularizedAllocator, Scenario
from repro.analysis import extract_dual_prices
from repro.experiments import ExperimentScale, ratio_table
from repro.experiments.robustness import (
    mobility_suite,
    robustness_spread,
    run_mobility_robustness,
)
from repro.mobility import trace_stats
from repro.solvers import InteriorPointBackend
from repro.topology import rome_metro_topology


def main() -> None:
    topology = rome_metro_topology()

    print("Trace statistics of each mobility process (20 users, 15 slots):")
    print(f"{'process':14s} {'switch rate':>12s} {'mean dwell':>11s} {'entropy':>8s}")
    for name, model in mobility_suite(topology).items():
        stats = trace_stats(model.generate(20, 15, np.random.default_rng(1)))
        print(
            f"{name:14s} {stats.switch_rate:12.3f} "
            f"{stats.mean_dwell:11.2f} {stats.occupancy_entropy:8.2f}"
        )

    scale = ExperimentScale(num_users=10, num_slots=8, repetitions=2)
    points = run_mobility_robustness(scale)
    print("\nEmpirical competitive ratios under each process:")
    print(ratio_table(points, axis_name="mobility"))
    spread = robustness_spread(points, "online-approx")
    print(f"\nonline-approx spread across processes: {spread:.3f}")

    # The economic view: congestion rents under the uniform walk.
    scenario = Scenario(
        topology=topology,
        mobility=mobility_suite(topology)["uniform-walk"],
        num_users=10,
        num_slots=8,
    )
    instance = scenario.build(seed=3)
    algorithm = OnlineRegularizedAllocator(backend=InteriorPointBackend())
    algorithm.run(instance)
    prices = extract_dual_prices(algorithm)
    slot, cloud, rent = prices.peak_congestion()
    print(
        f"\npeak congestion rent: cloud {topology.names[cloud]!r} "
        f"at slot {slot} (rent {rent:.2f}); "
        f"{int(prices.congested_clouds().sum())} congested (slot, cloud) pairs"
    )


if __name__ == "__main__":
    main()
