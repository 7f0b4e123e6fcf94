"""Tests for the shared linearized-P0 window LP (``windowed_p0_lp``)."""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.baselines import OnlineGreedy, windowed_p0_lp
from repro.core.allocation import AllocationSchedule
from repro.core.costs import cost_breakdown
from repro.core.problem import CostWeights
from tests.conftest import make_tiny_instance


@st.composite
def windows(draw):
    """A small random instance, a window [start, stop) with start >= 1."""
    num_slots = draw(st.integers(min_value=2, max_value=6))
    start = draw(st.integers(min_value=1, max_value=num_slots - 1))
    horizon = draw(st.integers(min_value=1, max_value=num_slots - start))
    weights = CostWeights(
        static=draw(st.sampled_from([0.5, 1.0, 2.0])),
        dynamic=draw(st.sampled_from([0.25, 1.0, 4.0])),
    )
    seed = draw(st.integers(min_value=0, max_value=10_000))
    instance = make_tiny_instance(weights=weights, num_slots=num_slots, seed=seed)
    return instance, start, horizon


@given(window=windows())
@settings(max_examples=40, deadline=None)
def test_window_objective_is_p0_from_a_nonzero_boundary(window):
    """The LP optimum is the P0 cost of its plan after ``x_prev``, exactly.

    ``x_prev`` is greedy's decision for the slot before the window, so it is
    feasible and nonzero: the transition rows carry it on the right-hand
    side, which the offline LP (from zero) never exercises.
    """
    instance, start, horizon = window
    stop = start + horizon
    shape = (instance.num_clouds, instance.num_users)
    x_prev = OnlineGreedy.solve_slot(instance, start - 1, np.zeros(shape))
    assert x_prev.sum() > 0

    builder = windowed_p0_lp(instance, start, horizon, x_prev)
    result = builder.solve()
    x_block = builder.block("x")
    plan = result.x[x_block.indices()].reshape(x_block.shape)
    constant = (
        instance.weights.static
        * instance.slice_slots(start, stop).access_delay_constant()
    )

    # Evaluate [x_prev, plan] from slot start-1 and drop that slot's own cost,
    # leaving the window's static cost and its transitions from x_prev.
    trajectory = AllocationSchedule(np.concatenate([x_prev[None], plan]))
    breakdown = cost_breakdown(trajectory, instance.slice_slots(start - 1, stop))
    p0_cost = breakdown.total - breakdown.total_per_slot[0]
    assert result.objective + constant == pytest.approx(p0_cost, rel=1e-9)


def test_only_one_module_declares_the_migration_blocks():
    """The linearized P0 is built in one place; forks cannot creep back.

    ``_linearized_p0`` declares every migration block from the names its
    callers pass, so a split-form block name may appear as a string only in
    the module that holds it and ``windowed_p0_lp``.
    """
    root = Path(repro.__file__).parent
    declaring = set()
    for path in root.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and node.value in ("m_in", "m_out"):
                declaring.add(path.relative_to(root).as_posix())
    assert declaring == {"baselines/base.py"}
