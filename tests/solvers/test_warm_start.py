"""Starting points: every P2 solve starts at the subproblem's interior point.

A program carries only its subproblem and a budget, so there is no
caller-supplied start to honour or ignore. The structured IPM cold-starts
every lane from ``interior_point()`` (a warm primal start with fresh
central-path duals measured no cheaper), and the trust-constr oracle
starts from the same point.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.subproblem import RegularizedSubproblem
from repro.simulation.scenario import Scenario
from tests.solvers.trust_constr import starting_point


@pytest.fixture(scope="module")
def subproblem():
    instance = Scenario(num_users=8, num_slots=3).build(seed=42)
    x_prev = np.zeros((instance.num_clouds, instance.num_users))
    return RegularizedSubproblem.from_instance(
        instance, 0, x_prev, eps1=1.0, eps2=1.0
    )


class TestOptionalX0:
    def test_starting_point_uses_structure_interior(self, subproblem):
        program = subproblem.build_program()
        assert np.array_equal(starting_point(program), subproblem.interior_point())
