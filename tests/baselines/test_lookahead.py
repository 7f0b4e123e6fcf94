"""Tests for the receding-horizon (lookahead) baseline."""

import numpy as np
import pytest

from repro.baselines.greedy import OnlineGreedy
from repro.baselines.lookahead import RecedingHorizon
from repro.baselines.offline import OfflineOptimal
from repro.core.costs import total_cost


class TestRecedingHorizon:
    def test_window_one_equals_greedy(self, tiny_instance):
        # Greedy's slot LP is the one-slot window: the schedules are equal
        # byte for byte, not just in cost.
        lookahead = RecedingHorizon(window=1).run(tiny_instance)
        greedy = OnlineGreedy().run(tiny_instance)
        assert lookahead.x.tobytes() == greedy.x.tobytes()

    def test_full_window_equals_offline(self, tiny_instance):
        lookahead = RecedingHorizon(window=tiny_instance.num_slots).run(tiny_instance)
        offline = OfflineOptimal().run(tiny_instance)
        assert total_cost(lookahead, tiny_instance) == pytest.approx(
            total_cost(offline, tiny_instance), rel=1e-6
        )

    def test_window_beyond_horizon_equals_offline(self, tiny_instance):
        lookahead = RecedingHorizon(window=99).run(tiny_instance)
        offline = OfflineOptimal().run(tiny_instance)
        assert total_cost(lookahead, tiny_instance) == pytest.approx(
            total_cost(offline, tiny_instance), rel=1e-6
        )

    def test_monotone_in_window_on_average(self, tiny_instance):
        """More lookahead never hurts much: W=T <= W=2 <= W=1 within noise.

        Receding horizon is not guaranteed monotone per instance, but the
        endpoints are exact; check the endpoints bracket the middle up to a
        small slack.
        """
        cost_1 = total_cost(RecedingHorizon(window=1).run(tiny_instance), tiny_instance)
        cost_2 = total_cost(RecedingHorizon(window=2).run(tiny_instance), tiny_instance)
        cost_t = total_cost(
            RecedingHorizon(window=tiny_instance.num_slots).run(tiny_instance),
            tiny_instance,
        )
        assert cost_t <= cost_2 + 1e-6 or cost_t <= cost_1 + 1e-6
        assert cost_t <= cost_1 + 1e-6

    def test_feasible(self, tiny_instance):
        schedule = RecedingHorizon(window=3).run(tiny_instance)
        schedule.require_feasible(tiny_instance, tol=1e-6)

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            RecedingHorizon(window=0)

    def test_name(self):
        assert RecedingHorizon(window=4).name == "lookahead-4"

    def test_solve_window_shape(self, tiny_instance):
        shape = (tiny_instance.num_clouds, tiny_instance.num_users)
        plan = RecedingHorizon(window=3).solve_window(
            tiny_instance, 0, np.zeros(shape)
        )
        assert plan.shape == (3, *shape)

    def test_window_clipped_at_horizon_end(self, tiny_instance):
        shape = (tiny_instance.num_clouds, tiny_instance.num_users)
        plan = RecedingHorizon(window=3).solve_window(
            tiny_instance, tiny_instance.num_slots - 1, np.zeros(shape)
        )
        assert plan.shape == (1, *shape)
