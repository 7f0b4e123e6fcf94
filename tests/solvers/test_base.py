"""Tests for the solver base types (ConvexProgram, SolverResult)."""

from dataclasses import fields

import numpy as np
import pytest

from repro.core.subproblem import RegularizedSubproblem
from repro.solvers.base import ConvexProgram, SolverResult
from tests.conftest import make_tiny_instance


class TestConvexProgram:
    def test_carries_only_the_subproblem_and_a_budget(self):
        """The kernel reads P2 from ``structure``; nothing else rides along."""
        assert [f.name for f in fields(ConvexProgram)] == ["structure", "budget"]
        instance = make_tiny_instance()
        x_prev = np.zeros((instance.num_clouds, instance.num_users))
        sub = RegularizedSubproblem.from_instance(
            instance, 0, x_prev, eps1=1.0, eps2=1.0
        )
        program = sub.build_program()
        assert program.structure is sub
        assert program.budget is None


class TestSolverResult:
    def test_defaults(self):
        result = SolverResult(x=np.zeros(3), objective=1.5)
        assert result.iterations == 0
        assert result.backend == ""
        assert result.duals == {}

    def test_frozen(self):
        result = SolverResult(x=np.zeros(1), objective=0.0)
        with pytest.raises(AttributeError):
            result.objective = 2.0
