"""Pinned Newton work: per-slot iteration counts of a small fig2 stream.

A refactor of the kernel may move its floats at rounding level (BLAS sums
in its own order), but not these counts: a change that shifts one changes
the algorithm.
"""

import pytest

from repro.core.regularization import OnlineRegularizedAllocator
from repro.experiments.fig2 import fig2_scenario
from repro.experiments.settings import ExperimentScale
from repro.solvers.base import SolveBudget

#: (iteration cap, per-slot iterations, partial slots) at seed 2017.
PINNED = [
    (10, [10, 10, 10, 10, 10, 10, 9, 10, 10, 10, 10, 10], 3),
    (None, [10, 11, 11, 11, 10, 10, 9, 10, 10, 10, 10, 10], 0),
]


@pytest.fixture(scope="module")
def fig2_stream():
    return fig2_scenario(ExperimentScale(num_users=12, num_slots=12)).build(seed=2017)


@pytest.mark.parametrize("cap, counts, partial", PINNED, ids=["capped", "uncapped"])
def test_fig2_newton_counts(fig2_stream, cap, counts, partial):
    budget = None if cap is None else SolveBudget(max_iterations=cap)
    algorithm = OnlineRegularizedAllocator(budget=budget)
    algorithm.run(fig2_stream)
    solves = algorithm.last_solves
    assert [result.iterations for result in solves] == counts
    assert sum(result.partial for result in solves) == partial
