"""Tests for the sparse LP builder and the HiGHS wrapper."""

import ast
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import linprog

import repro
from repro.baselines.atomistic import solve_static_slot
from repro.baselines.greedy import OnlineGreedy
from repro.baselines.offline import OfflineOptimal
from repro.core.duality import solve_dual, solve_p3
from repro.core.subproblem import RegularizedSubproblem
from repro.diagnostics.certificates import lp_multipliers
from repro.solvers import linear
from repro.solvers.base import SolverError
from repro.solvers.linear import LinearProgramBuilder
from tests.conftest import make_tiny_instance


class TestBlocks:
    def test_block_layout(self):
        builder = LinearProgramBuilder()
        a = builder.add_block("a", 2, 3)
        b = builder.add_block("b", 4)
        assert a.offset == 0
        assert a.size == 6
        assert b.offset == 6
        assert b.size == 4
        assert builder.num_variables == 10

    def test_indices_shape(self):
        builder = LinearProgramBuilder()
        block = builder.add_block("x", 2, 3)
        idx = block.indices()
        assert idx.shape == (2, 3)
        assert idx[1, 2] == 5

    def test_duplicate_name(self):
        builder = LinearProgramBuilder()
        builder.add_block("x", 1)
        with pytest.raises(ValueError):
            builder.add_block("x", 2)

    def test_lookup(self):
        builder = LinearProgramBuilder()
        builder.add_block("x", 3)
        assert builder.block("x").size == 3
        with pytest.raises(KeyError):
            builder.block("missing")


class TestSolve:
    def test_simple_minimization(self):
        # min x + 2y  s.t. x + y >= 4, x <= 3  ->  x=3, y=1, objective 5.
        builder = LinearProgramBuilder()
        x = builder.add_block("x", 1)
        y = builder.add_block("y", 1)
        builder.set_cost(x.indices(), 1.0)
        builder.set_cost(y.indices(), 2.0)
        builder.add_ge(np.array([0, 1]), np.array([1.0, 1.0]), 4.0)
        builder.set_upper_bound(x.indices(), 3.0)
        result = builder.solve()
        assert result.objective == pytest.approx(5.0)
        assert result.x[0] == pytest.approx(3.0)
        assert result.x[1] == pytest.approx(1.0)

    def test_transportation_problem(self):
        # 2 sources (capacity 5, 5), 2 sinks (demand 4, 4), unit costs.
        costs = np.array([[1.0, 3.0], [2.0, 1.0]])
        builder = LinearProgramBuilder()
        x = builder.add_block("x", 2, 2)
        idx = x.indices()
        builder.set_cost(idx, costs)
        for sink in range(2):
            builder.add_ge(idx[:, sink], 1.0, 4.0)
        for source in range(2):
            builder.add_le(idx[source, :], 1.0, 5.0)
        result = builder.solve()
        # Optimal: send 4 on (0,0) and 4 on (1,1): cost 8.
        assert result.objective == pytest.approx(8.0)

    def test_infeasible_raises(self):
        builder = LinearProgramBuilder()
        x = builder.add_block("x", 1)
        builder.set_cost(x.indices(), 1.0)
        builder.add_ge(x.indices(), 1.0, 10.0)
        builder.set_upper_bound(x.indices(), 1.0)
        with pytest.raises(SolverError):
            builder.solve()

    def test_unbounded_raises(self):
        builder = LinearProgramBuilder()
        x = builder.add_block("x", 1)
        builder.set_cost(x.indices(), -1.0)  # minimize -x with x >= 0
        with pytest.raises(SolverError):
            builder.solve()

    def test_no_constraints(self):
        builder = LinearProgramBuilder()
        x = builder.add_block("x", 3)
        builder.set_cost(x.indices(), 1.0)
        result = builder.solve()
        assert np.allclose(result.x, 0.0)
        assert result.objective == pytest.approx(0.0)

    def test_cost_accumulates(self):
        builder = LinearProgramBuilder()
        x = builder.add_block("x", 1)
        builder.set_cost(x.indices(), 1.0)
        builder.set_cost(x.indices(), 2.0)  # same variable: 3x total
        builder.add_ge(x.indices(), 1.0, 2.0)
        result = builder.solve()
        assert result.objective == pytest.approx(6.0)

    def test_size_mismatch_rejected(self):
        builder = LinearProgramBuilder()
        x = builder.add_block("x", 3)
        with pytest.raises(ValueError):
            builder.set_cost(x.indices(), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            builder.add_ge(x.indices(), np.array([1.0, 2.0]), 1.0)
        with pytest.raises(ValueError):
            builder.set_upper_bound(x.indices(), np.array([1.0, 2.0]))

    def test_result_metadata(self):
        builder = LinearProgramBuilder()
        x = builder.add_block("x", 1)
        builder.set_cost(x.indices(), 1.0)
        builder.add_ge(x.indices(), 1.0, 1.0)
        result = builder.solve()
        assert result.backend.startswith("linprog")


def _builders_solved_by(monkeypatch, run) -> list[LinearProgramBuilder]:
    """Every builder whose ``solve`` runs while ``run()`` executes."""
    builders = []
    solve = LinearProgramBuilder.solve

    def record(self):
        builders.append(self)
        return solve(self)

    with monkeypatch.context() as patch:
        patch.setattr(LinearProgramBuilder, "solve", record)
        run()
    return builders


def _x_prev(instance):
    """A nonzero feasible allocation: workloads spread evenly over clouds."""
    workloads = np.asarray(instance.workloads, dtype=float)
    return np.tile(workloads / instance.num_clouds, (instance.num_clouds, 1))


def _free_variable_lp():
    # min u - 2x  s.t.  u >= x - 5,  x <= 3,  u free  ->  x = 3, u = -2.
    builder = LinearProgramBuilder()
    x = builder.add_block("x", 1)
    u = builder.add_block("u", 1)
    builder.set_free(u.indices())
    builder.set_upper_bound(x.indices(), 3.0)
    builder.set_cost(np.array([0, 1]), np.array([-2.0, 1.0]))
    builder.add_le(np.array([0, 1]), np.array([1.0, -1.0]), 5.0)
    return builder


def _certificate_lp(instance):
    subproblem = RegularizedSubproblem.from_instance(
        instance, slot=1, x_prev=_x_prev(instance), eps1=1.0, eps2=1.0
    )
    lp_multipliers(subproblem, _x_prev(instance).ravel() + 0.1)


LP_CASES = {
    "atomistic-slot": lambda inst: solve_static_slot(inst, inst.static_prices(0)),
    "greedy-slot": lambda inst: OnlineGreedy.solve_slot(inst, 1, _x_prev(inst)),
    "p3": solve_p3,
    "p3-dual": solve_dual,
    "certificate": _certificate_lp,
}


class TestMatchesLinprog:
    """The direct HiGHS call returns exactly what ``linprog`` returns."""

    @staticmethod
    def assert_bit_identical(builder: LinearProgramBuilder) -> None:
        program = builder.model()
        result = builder.solve()
        reference = linprog(
            program.cost,
            A_ub=program.a_ub,
            b_ub=program.b_ub,
            bounds=np.column_stack([program.lower, program.upper]),
            method="highs",
        )
        assert reference.success
        assert result.x.tobytes() == reference.x.tobytes()
        assert result.objective == reference.fun
        marginals = result.duals["inequality"]
        assert marginals.tobytes() == reference.ineqlin.marginals.tobytes()
        assert result.iterations == reference.nit

    @pytest.mark.parametrize("case", sorted(LP_CASES))
    def test_program_lps(self, case, monkeypatch):
        instance = make_tiny_instance(num_slots=3)
        builders = _builders_solved_by(monkeypatch, lambda: LP_CASES[case](instance))
        assert builders
        for builder in builders:
            self.assert_bit_identical(builder)

    def test_offline_three_slot_lp(self):
        instance = make_tiny_instance(num_slots=3)
        self.assert_bit_identical(OfflineOptimal.build_lp(instance))

    def test_free_variables_and_upper_bounds(self):
        builder = _free_variable_lp()
        self.assert_bit_identical(builder)
        assert builder.solve().x == pytest.approx([3.0, -2.0])


class TestHostileInput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_cost_rejected_before_solving(self, bad):
        builder = LinearProgramBuilder()
        x = builder.add_block("x", 2)
        builder.set_cost(x.indices(), np.array([1.0, bad]))
        builder.add_ge(x.indices(), 1.0, 1.0)
        with pytest.raises(ValueError, match="cost"):
            builder.solve()
        program = builder.model()
        with pytest.raises(ValueError):
            linprog(program.cost, A_ub=program.a_ub, b_ub=program.b_ub)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rhs_rejected_before_solving(self, bad):
        builder = LinearProgramBuilder()
        x = builder.add_block("x", 2)
        builder.set_cost(x.indices(), 1.0)
        builder.add_le_rows(x.indices()[:, None], 1.0, np.array([1.0, bad]))
        with pytest.raises(ValueError, match="b_ub"):
            builder.solve()
        program = builder.model()
        with pytest.raises(ValueError):
            linprog(program.cost, A_ub=program.a_ub, b_ub=program.b_ub)

    def test_nan_upper_bound_rejected(self):
        builder = LinearProgramBuilder()
        x = builder.add_block("x", 2)
        with pytest.raises(ValueError, match="NaN"):
            builder.set_upper_bound(x.indices(), np.array([1.0, np.nan]))

    @pytest.mark.parametrize("case", ["atomistic-slot", "greedy-slot"])
    def test_slot_with_more_demand_than_capacity_raises(self, case):
        instance = make_tiny_instance()
        # The constructor refuses sum(workloads) > sum(capacities); forge one.
        object.__setattr__(instance, "capacities", np.array([1.0, 1.0, 1.0]))
        with pytest.raises(SolverError):
            LP_CASES[case](instance)


class _OptimalButWrong:
    """Stands in for ``_Highs``: claims optimal, returns ``col_value``."""

    col_value: list[float] = []

    def passOptions(self, options):
        pass

    def run(self):
        pass

    def passModel(self, *args):
        return linear._core.HighsStatus.kOk

    def getModelStatus(self):
        return linear._core.HighsModelStatus.kOptimal

    def getSolution(self):
        x = self.col_value
        return SimpleNamespace(col_value=x, row_value=[x[0] + x[1]], row_dual=[0.0])

    def getInfo(self):
        return SimpleNamespace(
            objective_function_value=0.0,
            simplex_iteration_count=1,
            ipm_iteration_count=0,
        )


class TestSolutionCheck:
    """A reported optimum is still checked the way ``linprog`` checks it."""

    @pytest.mark.parametrize(
        "x",
        [[np.nan, 0.0], [-1e-3, 0.0], [2.0 + 1e-3, 0.0], [2.0, 2.0 + 1e-3]],
        ids=["nan", "below-lower", "above-upper", "row-violated"],
    )
    def test_violations_raise(self, x, monkeypatch):
        # 0 <= v0 <= 2, v1 >= 0, v0 + v1 <= 4.
        builder = LinearProgramBuilder()
        v = builder.add_block("v", 2)
        builder.set_cost(v.indices(), 1.0)
        builder.set_upper_bound(v.indices()[:1], 2.0)
        builder.add_le(v.indices(), 1.0, 4.0)
        monkeypatch.setattr(_OptimalButWrong, "col_value", x)
        monkeypatch.setattr(linear._core, "_Highs", _OptimalButWrong)
        with pytest.raises(SolverError, match="violates"):
            builder.solve()

    def test_within_tolerance_passes(self, monkeypatch):
        builder = LinearProgramBuilder()
        v = builder.add_block("v", 2)
        builder.set_cost(v.indices(), 1.0)
        builder.add_le(v.indices(), 1.0, 4.0)
        monkeypatch.setattr(_OptimalButWrong, "col_value", [4.0 + 1e-5, -1e-5])
        monkeypatch.setattr(linear._core, "_Highs", _OptimalButWrong)
        assert builder.solve().x.tolist() == [4.0 + 1e-5, -1e-5]


def test_only_the_lp_module_imports_the_private_highs_binding():
    """``scipy.optimize._highspy`` is private; keep its use to one file."""
    root = Path(repro.__file__).parent
    importers = set()
    for path in root.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                modules = [node.module] + [
                    f"{node.module}.{alias.name}" for alias in node.names
                ]
            else:
                continue
            if any(m.startswith("scipy.optimize._highspy") for m in modules):
                importers.add(path.relative_to(root).as_posix())
    assert importers == {"solvers/linear.py"}
