"""Sparse linear-program construction and solution with HiGHS.

This is the substrate the paper obtained from GLPK: the offline optimum,
the online greedy step, and the atomistic baselines are all linear programs
once the (x)+ terms are linearized with auxiliary variables. The
:class:`LinearProgramBuilder` keeps that linearization code readable: named
variable blocks, constraints assembled in sparse triplet form.

:meth:`LinearProgramBuilder.solve` hands the assembled arrays straight to
the HiGHS binding that SciPy bundles (``scipy.optimize._highspy``), with
the option set ``linprog(method="highs")`` uses, and applies the same
input and solution checks. The results are bit-identical to ``linprog``'s;
what is skipped is its per-call wrapping (input cleaning, option
validation and a Python loop over every column for bound marginals),
which cost several times the HiGHS solve on the paper's small LPs. This
is the only module that touches the private binding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize._highspy import _core
from scipy.optimize._highspy._core import simplex_constants

from .base import SolverError, SolverResult


def _highs_options() -> _core.HighsOptions:
    """The options ``linprog(method="highs")`` sets; the rest stay default."""
    options = _core.HighsOptions()
    options.presolve = "on"
    options.highs_debug_level = _core.HighsDebugLevel.kHighsDebugLevelNone
    options.log_to_console = False
    options.output_flag = False
    options.simplex_strategy = simplex_constants.SimplexStrategy.kSimplexStrategyDual
    return options


_OPTIONS = _highs_options()


@dataclass(frozen=True)
class LinearProgram:
    """``min cost·v  s.t.  a_ub v <= b_ub,  lower <= v <= upper`` as arrays."""

    cost: np.ndarray
    a_ub: sparse.csc_matrix
    b_ub: np.ndarray
    lower: np.ndarray
    upper: np.ndarray


@dataclass(frozen=True)
class VariableBlock:
    """A named contiguous block of LP variables with an arbitrary shape."""

    name: str
    offset: int
    shape: tuple[int, ...]

    @property
    def size(self) -> int:
        return int(np.prod(self.shape)) if self.shape else 1

    def indices(self) -> np.ndarray:
        """Flat LP-column indices of the whole block, shaped like the block."""
        return np.arange(self.offset, self.offset + self.size).reshape(self.shape)


class LinearProgramBuilder:
    """Assemble ``min c^T v  s.t.  A_ub v <= b_ub, v >= 0`` incrementally.

    Variables are declared as named blocks; constraints are added as sparse
    rows referencing flat column indices obtained from the blocks. All
    variables are nonnegative (which is what every program in the paper
    needs); upper bounds can be attached per block.
    """

    def __init__(self) -> None:
        self._blocks: dict[str, VariableBlock] = {}
        self._num_vars = 0
        self._cost_entries: list[tuple[np.ndarray, np.ndarray]] = []
        self._rows: list[np.ndarray] = []
        self._cols: list[np.ndarray] = []
        self._vals: list[np.ndarray] = []
        self._rhs: list[float] = []
        self._num_rows = 0
        self._upper: list[tuple[np.ndarray, np.ndarray]] = []
        self._free: list[np.ndarray] = []

    def add_block(self, name: str, *shape: int) -> VariableBlock:
        """Declare a new nonnegative variable block."""
        if name in self._blocks:
            raise ValueError(f"variable block {name!r} already exists")
        block = VariableBlock(name=name, offset=self._num_vars, shape=tuple(shape))
        self._blocks[name] = block
        self._num_vars += block.size
        return block

    def block(self, name: str) -> VariableBlock:
        """Look up a declared variable block by name."""
        return self._blocks[name]

    def set_cost(self, indices: np.ndarray, coefficients: np.ndarray) -> None:
        """Add objective coefficients for the given flat variable indices.

        ``coefficients`` may be a scalar or any array with the same number
        of elements as ``indices`` (both are flattened in C order).
        """
        indices = np.asarray(indices).ravel()
        coefficients = np.asarray(coefficients, dtype=float).ravel()
        if coefficients.size == 1:
            coefficients = np.full(indices.size, float(coefficients[0]))
        elif coefficients.size != indices.size:
            raise ValueError(
                f"coefficients size {coefficients.size} != indices size {indices.size}"
            )
        self._cost_entries.append((indices, coefficients))

    def set_upper_bound(self, indices: np.ndarray, upper: np.ndarray) -> None:
        """Attach upper bounds to specific variables (default is +inf)."""
        indices = np.asarray(indices).ravel()
        upper = np.asarray(upper, dtype=float).ravel()
        if upper.size == 1:
            upper = np.full(indices.size, float(upper[0]))
        elif upper.size != indices.size:
            raise ValueError(f"upper size {upper.size} != indices size {indices.size}")
        if np.isnan(upper).any():
            raise ValueError("upper bounds must not be NaN")
        self._upper.append((indices, upper))

    def set_free(self, indices: np.ndarray) -> None:
        """Lift the default nonnegativity: these variables range over R.

        Needed for relaxation variables like P3's reconfiguration term,
        whose lower bound is a constraint (u >= Delta X) rather than zero.
        """
        self._free.append(np.asarray(indices).ravel())

    def add_le(self, indices: np.ndarray, coefficients: np.ndarray, rhs: float) -> None:
        """Add one constraint  sum coefficients * v[indices] <= rhs."""
        indices = np.asarray(indices).ravel()
        coefficients = np.asarray(coefficients, dtype=float).ravel()
        if coefficients.size == 1:
            coefficients = np.full(indices.size, float(coefficients[0]))
        elif coefficients.size != indices.size:
            raise ValueError(
                f"coefficients size {coefficients.size} != indices size {indices.size}"
            )
        self._rows.append(np.full(indices.size, self._num_rows))
        self._cols.append(indices.astype(int))
        self._vals.append(coefficients)
        self._rhs.append(float(rhs))
        self._num_rows += 1

    def add_ge(self, indices: np.ndarray, coefficients: np.ndarray, rhs: float) -> None:
        """Add one constraint  sum coefficients * v[indices] >= rhs."""
        self.add_le(indices, -np.asarray(coefficients, dtype=float), -rhs)

    def add_le_rows(
        self, columns: np.ndarray, coefficients: np.ndarray, rhs: np.ndarray
    ) -> None:
        """Add many constraints at once (vectorized).

        Args:
            columns: (R, K) integer matrix; row r lists the K variable
                indices of constraint r.
            coefficients: (R, K) (or broadcastable) coefficient matrix.
            rhs: (R,) right-hand sides; row r is  sum_k coef * v[col] <= rhs[r].
        """
        columns = np.asarray(columns, dtype=int)
        if columns.ndim != 2:
            raise ValueError("columns must be a (R, K) matrix")
        num_rows, width = columns.shape
        coefficients = np.broadcast_to(
            np.asarray(coefficients, dtype=float), columns.shape
        )
        rhs = np.asarray(rhs, dtype=float).ravel()
        if rhs.size != num_rows:
            raise ValueError(f"rhs size {rhs.size} != number of rows {num_rows}")
        row_ids = np.repeat(np.arange(self._num_rows, self._num_rows + num_rows), width)
        self._rows.append(row_ids)
        self._cols.append(columns.ravel())
        self._vals.append(coefficients.ravel().copy())
        self._rhs.extend(rhs.tolist())
        self._num_rows += num_rows

    def add_ge_rows(
        self, columns: np.ndarray, coefficients: np.ndarray, rhs: np.ndarray
    ) -> None:
        """Vectorized >= counterpart of :meth:`add_le_rows`."""
        coefficients = np.broadcast_to(
            np.asarray(coefficients, dtype=float), np.asarray(columns).shape
        )
        self.add_le_rows(columns, -coefficients, -np.asarray(rhs, dtype=float))

    @property
    def num_variables(self) -> int:
        return self._num_vars

    @property
    def num_constraints(self) -> int:
        return self._num_rows

    def model(self) -> LinearProgram:
        """The assembled program; later bounds on a variable override earlier."""
        n = self._num_vars
        if self._cost_entries:
            indices, coefficients = zip(*self._cost_entries)
            cost = np.bincount(
                np.concatenate(indices), np.concatenate(coefficients), minlength=n
            )
        else:
            cost = np.zeros(n)
        if self._num_rows:
            a_ub = sparse.coo_matrix(
                (
                    np.concatenate(self._vals),
                    (np.concatenate(self._rows), np.concatenate(self._cols)),
                ),
                shape=(self._num_rows, n),
            ).tocsc()
        else:
            a_ub = sparse.csc_matrix((0, n))
        lower = np.zeros(n)
        for indices in self._free:
            lower[indices] = -np.inf
        upper = np.full(n, np.inf)
        for indices, values in self._upper:
            upper[indices] = values
        b_ub = np.asarray(self._rhs, dtype=float)
        return LinearProgram(cost, a_ub, b_ub, lower, upper)

    def solve(self) -> SolverResult:
        """Run HiGHS and return the solution; raise SolverError if not optimal.

        Raises ValueError before HiGHS runs when the cost, the constraint
        matrix or a right-hand side holds NaN or inf, as ``linprog`` does.
        The returned solution passes ``linprog``'s own check: no NaN, and
        bounds and rows hold to ``10 * sqrt(1e-9)``.
        """
        program = self.model()
        cost, a_ub, b_ub = program.cost, program.a_ub, program.b_ub
        if cost.size == 0:
            raise ValueError("a linear program needs at least one variable")
        for name, values in (("cost", cost), ("A_ub", a_ub.data), ("b_ub", b_ub)):
            if not np.isfinite(values).all():
                raise ValueError(f"{name} must not contain inf or NaN")
        num_rows, num_cols = a_ub.shape
        highs = _core._Highs()
        highs.passOptions(_OPTIONS)
        status = highs.passModel(
            num_cols,
            num_rows,
            a_ub.nnz,
            _core.MatrixFormat.kColwise,
            _core.ObjSense.kMinimize,
            0.0,  # objective offset
            cost,
            # Absent bounds become HiGHS's own infinity.
            np.clip(program.lower, -_core.kHighsInf, _core.kHighsInf),
            np.clip(program.upper, -_core.kHighsInf, _core.kHighsInf),
            np.full(num_rows, -_core.kHighsInf),
            b_ub,
            a_ub.indptr,
            a_ub.indices,
            a_ub.data,
            np.zeros(num_cols, dtype=np.int32),  # every column continuous
        )
        if status == _core.HighsStatus.kError:
            raise SolverError("HiGHS rejected the model")
        highs.run()
        status = highs.getModelStatus()
        if status != _core.HighsModelStatus.kOptimal:
            raise SolverError(f"HiGHS failed: {highs.modelStatusToString(status)}")
        solution = highs.getSolution()
        info = highs.getInfo()
        x = np.array(solution.col_value)
        objective = float(info.objective_function_value)
        slack = b_ub - np.array(solution.row_value)
        tol = 10 * np.sqrt(1e-9)
        if (
            np.isnan(x).any()
            or np.isnan(objective)
            or np.isnan(slack).any()
            or (x < program.lower - tol).any()
            or (x > program.upper + tol).any()
            or (slack < -tol).any()
        ):
            raise SolverError(
                "HiGHS reported optimal but the solution violates the bounds "
                f"or constraints by more than {tol:.2e}"
            )
        return SolverResult(
            x=x,
            objective=objective,
            iterations=int(info.simplex_iteration_count or info.ipm_iteration_count),
            backend="linprog-highs",
            # HiGHS row duals are <= 0 for A_ub v <= b_ub rows, in row order.
            duals={"inequality": np.array(solution.row_dual)},
        )
