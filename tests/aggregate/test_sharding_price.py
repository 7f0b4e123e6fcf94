"""Price-aware shard capacity slicing: valid shares, guaranteed headroom."""

import numpy as np
import pytest

from repro.aggregate import AggregationConfig
from repro.aggregate.sharding import (
    ShardedSolve,
    shard_capacity_shares,
    solve_sharded,
)
from repro.core.subproblem import RegularizedSubproblem
from tests.conftest import make_tiny_instance


def _subproblem(seed: int = 0, x_prev: np.ndarray | None = None):
    instance = make_tiny_instance(seed=seed)
    if x_prev is None:
        # A realized previous decision: everyone served at the attached
        # station, so the usage split is non-trivial.
        x_prev = np.zeros((instance.num_clouds, instance.num_users))
        x_prev[instance.attachment[0], np.arange(instance.num_users)] = (
            instance.workloads
        )
    return RegularizedSubproblem.from_instance(
        instance, 0, x_prev, eps1=1.0, eps2=1.0
    )


def _blocks():
    return [np.array([0, 1]), np.array([2, 3])]


class TestShardCapacityShares:
    def test_shares_sum_to_one_per_cloud(self):
        sub = _subproblem()
        duals = np.array([5.0, 0.1, 2.0])
        for capacity_duals in [None, duals]:
            t = shard_capacity_shares(
                sub, _blocks(), capacity_duals=capacity_duals
            )
            assert t.shape == (3, 2)
            assert np.all(t >= 0.0)
            assert np.allclose(t.sum(axis=1), 1.0)

    def test_without_duals_price_equals_proportional(self):
        sub = _subproblem()
        workloads = np.asarray(sub.workloads, dtype=float)
        proportional = np.array(
            [workloads[block].sum() / workloads.sum() for block in _blocks()]
        )
        unpriced = shard_capacity_shares(sub, _blocks())
        assert np.array_equal(unpriced, np.tile(proportional, (3, 1)))
        # Slack everywhere (zero duals) keeps the proportional slices too.
        zero_duals = shard_capacity_shares(
            sub, _blocks(), capacity_duals=np.zeros(3)
        )
        assert np.array_equal(zero_duals, unpriced)

    def test_price_slices_follow_the_binding_cloud(self):
        sub = _subproblem()
        unpriced = shard_capacity_shares(sub, _blocks())
        priced = shard_capacity_shares(
            sub, _blocks(), capacity_duals=np.array([5.0, 0.1, 2.0])
        )
        assert not np.array_equal(priced, unpriced)

    def test_single_block_gets_everything(self):
        sub = _subproblem()
        t = shard_capacity_shares(
            sub,
            [np.arange(4)],
            capacity_duals=np.array([1.0, 1.0, 1.0]),
        )
        assert np.allclose(t, 1.0)

    def test_every_shard_keeps_its_feasibility_headroom(self):
        sub = _subproblem()
        workloads = np.asarray(sub.workloads, dtype=float)
        capacities = np.asarray(sub.capacities, dtype=float)
        total = float(workloads.sum())
        overprovision = float(capacities.sum()) / total
        blocks = _blocks()
        shares = np.array([workloads[b].sum() / total for b in blocks])
        # 0.1 is the slicer's headroom-keep fraction (see sharding.py).
        target = (1.0 + 0.1 * (overprovision - 1.0)) * shares * total
        for duals in [
            np.array([100.0, 0.0, 0.0]),
            np.array([0.0, 0.0, 100.0]),
            np.array([3.0, 7.0, 1.0]),
        ]:
            t = shard_capacity_shares(sub, blocks, capacity_duals=duals)
            shard_totals = capacities @ t
            assert np.all(shard_totals >= target - 1e-9)


class TestConfig:
    @pytest.mark.parametrize("workers", [2, 0, None])
    def test_workers_other_than_one_are_refused(self, workers):
        with pytest.raises(ValueError, match="shard solves run in-process"):
            AggregationConfig(shards=2, workers=workers)


class TestShardedSolveResult:
    def test_carries_the_assembled_solution(self):
        solve = solve_sharded(_subproblem(), shards=2)
        assert isinstance(solve, ShardedSolve)
        assert solve.x.shape == (3, 4)
        assert solve.iterations > 0
        assert solve.partial_solves == 0

    def test_carries_capacity_duals_for_the_next_slot(self):
        solve = solve_sharded(_subproblem(), shards=2)
        assert solve.capacity_duals is not None
        assert solve.capacity_duals.shape == (3,)

    def test_price_sliced_shards_stay_feasible(self):
        sub = _subproblem()
        duals = solve_sharded(sub, shards=2).capacity_duals
        solve = solve_sharded(sub, shards=2, capacity_duals=duals)
        x = solve.x
        workloads = np.asarray(sub.workloads, dtype=float)
        capacities = np.asarray(sub.capacities, dtype=float)
        assert np.all(x.sum(axis=0) >= workloads - 1e-6)
        assert np.all(x.sum(axis=1) <= capacities + 1e-6)
        assert np.all(x >= -1e-9)
