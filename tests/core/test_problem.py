"""Tests for ProblemInstance and CostWeights."""

import dataclasses

import numpy as np
import pytest

from repro.core.problem import CostWeights, ProblemInstance
from repro.pricing.bandwidth import MigrationPrices
from tests.conftest import make_tiny_instance


class TestCostWeights:
    def test_defaults(self):
        w = CostWeights()
        assert w.static == 1.0
        assert w.dynamic == 1.0
        assert w.mu == 1.0

    def test_from_mu(self):
        w = CostWeights.from_mu(2.5)
        assert w.static == 1.0
        assert w.dynamic == 2.5
        assert w.mu == 2.5

    def test_mu_with_zero_static(self):
        assert CostWeights(static=0.0, dynamic=1.0).mu == float("inf")

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            CostWeights(static=-1.0)
        with pytest.raises(ValueError):
            CostWeights.from_mu(-0.5)

    def test_both_zero_rejected(self):
        with pytest.raises(ValueError):
            CostWeights(static=0.0, dynamic=0.0)


class TestProblemInstanceValidation:
    def test_tiny_instance_valid(self, tiny_instance):
        assert tiny_instance.num_clouds == 3
        assert tiny_instance.num_users == 4
        assert tiny_instance.num_slots == 5
        assert tiny_instance.total_workload == 10.0

    def _fields(self, **overrides):
        base = make_tiny_instance()
        fields = {f.name: getattr(base, f.name) for f in dataclasses.fields(base)}
        fields.update(overrides)
        return fields

    def test_nonpositive_workload(self):
        with pytest.raises(ValueError, match="workloads"):
            ProblemInstance(**self._fields(workloads=np.array([1.0, 2.0, 0.0, 1.0])))

    def test_nonpositive_capacity(self):
        with pytest.raises(ValueError, match="capacities"):
            ProblemInstance(**self._fields(capacities=np.array([6.0, -5.0, 4.0])))

    def test_negative_op_price(self):
        bad = np.full((5, 3), -0.1)
        with pytest.raises(ValueError, match="[Oo]peration"):
            ProblemInstance(**self._fields(op_prices=bad))

    def test_wrong_op_price_shape(self):
        with pytest.raises(ValueError, match="op_prices"):
            ProblemInstance(**self._fields(op_prices=np.ones((5, 7))))

    def test_zero_slots_rejected(self):
        with pytest.raises(ValueError):
            ProblemInstance(
                **self._fields(
                    op_prices=np.ones((0, 3)),
                    attachment=np.zeros((0, 4), dtype=int),
                    access_delay=np.zeros((0, 4)),
                )
            )

    def test_negative_reconfig_price(self):
        with pytest.raises(ValueError, match="reconfig"):
            ProblemInstance(**self._fields(reconfig_prices=np.array([1.0, -1.0, 1.0])))

    def test_migration_price_shape(self):
        bad = MigrationPrices(out=np.array([1.0]), into=np.array([1.0]))
        with pytest.raises(ValueError, match="migration"):
            ProblemInstance(**self._fields(migration_prices=bad))

    def test_delay_diagonal(self):
        bad = np.ones((3, 3))
        with pytest.raises(ValueError, match="diagonal"):
            ProblemInstance(**self._fields(inter_cloud_delay=bad))

    def test_attachment_dtype(self):
        with pytest.raises(ValueError, match="integer"):
            ProblemInstance(**self._fields(attachment=np.zeros((5, 4))))

    def test_attachment_out_of_range(self):
        with pytest.raises(ValueError, match="index"):
            ProblemInstance(**self._fields(attachment=np.full((5, 4), 9)))

    def test_negative_access_delay(self):
        with pytest.raises(ValueError, match="access_delay"):
            ProblemInstance(**self._fields(access_delay=np.full((5, 4), -1.0)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize(
        "name, match",
        [
            ("workloads", "workloads"),
            ("capacities", "capacities"),
            ("op_prices", "[Oo]peration"),
            ("reconfig_prices", "reconfig"),
            ("access_delay", "access_delay"),
        ],
    )
    def test_non_finite_input(self, name, match, bad):
        values = np.array(getattr(make_tiny_instance(), name), dtype=float)
        values.flat[1] = bad
        with pytest.raises(ValueError, match=match):
            ProblemInstance(**self._fields(**{name: values}))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_migration_price(self, bad):
        prices = MigrationPrices(out=np.array([1.0, bad, 1.0]), into=np.ones(3))
        with pytest.raises(ValueError, match="migration"):
            ProblemInstance(**self._fields(migration_prices=prices))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_delay(self, bad):
        delay = np.array(make_tiny_instance().inter_cloud_delay, dtype=float)
        delay[0, 1] = delay[1, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            ProblemInstance(**self._fields(inter_cloud_delay=delay))

    def test_asymmetric_delay(self):
        delay = np.array(make_tiny_instance().inter_cloud_delay, dtype=float)
        delay[0, 1] += 1.0
        with pytest.raises(ValueError, match="symmetric"):
            ProblemInstance(**self._fields(inter_cloud_delay=delay))

    def test_infeasible_capacity(self):
        with pytest.raises(ValueError, match="infeasible"):
            ProblemInstance(**self._fields(capacities=np.array([3.0, 3.0, 3.0])))


class TestProblemInstanceHelpers:
    def test_static_prices_formula(self, tiny_instance):
        slot = 2
        prices = tiny_instance.static_prices(slot)
        i, j = 1, 3
        attached = int(tiny_instance.attachment[slot, j])
        expected = (
            tiny_instance.op_prices[slot, i]
            + tiny_instance.inter_cloud_delay[attached, i] / tiny_instance.workloads[j]
        )
        assert prices[i, j] == pytest.approx(expected)

    def test_static_prices_attached_cloud_has_no_delay_term(self, tiny_instance):
        slot = 0
        prices = tiny_instance.static_prices(slot)
        for j in range(tiny_instance.num_users):
            attached = int(tiny_instance.attachment[slot, j])
            assert prices[attached, j] == pytest.approx(
                tiny_instance.op_prices[slot, attached]
            )

    def test_static_prices_slot_bounds(self, tiny_instance):
        with pytest.raises(IndexError):
            tiny_instance.static_prices(99)

    def test_access_delay_constant(self, tiny_instance):
        assert tiny_instance.access_delay_constant() == pytest.approx(
            float(np.sum(tiny_instance.access_delay))
        )

    def test_slice_slots(self, tiny_instance):
        sub = tiny_instance.slice_slots(1, 4)
        assert sub.num_slots == 3
        assert np.array_equal(sub.op_prices, tiny_instance.op_prices[1:4])
        assert np.array_equal(sub.attachment, tiny_instance.attachment[1:4])
        # Time-invariant data is shared.
        assert np.array_equal(sub.capacities, tiny_instance.capacities)

    def test_slice_invalid(self, tiny_instance):
        with pytest.raises(ValueError):
            tiny_instance.slice_slots(4, 4)

    def test_with_weights(self, tiny_instance):
        w = CostWeights.from_mu(5.0)
        new = tiny_instance.with_weights(w)
        assert new.weights.mu == 5.0
        assert tiny_instance.weights.mu == 1.0  # original untouched
