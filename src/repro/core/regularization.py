"""The paper's online algorithm (Section III-B).

At the start of each slot t, observe the attachments l_{j,t} and prices
a_{i,t}, build the regularized subproblem P2 from the previous decision
x*_{t-1} (with x*_0 = 0), solve it optimally with a convex backend, and
output x*_t. Theorem 1 guarantees the resulting trajectory is feasible for
P0/P1; Theorem 2 bounds its competitive ratio by 1 + gamma |I|.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # import cycle: simulation/aggregate build on core
    from ..aggregate.config import AggregationConfig
    from ..aggregate.controller import AggregatedController
    from ..simulation.controllers import RegularizedController
    from ..simulation.observations import SystemDescription

from ..solvers.base import ConvexBackend, SolveBudget, SolverResult
from ..solvers.interior_point import InteriorPointBackend
from ..telemetry import get_registry
from .allocation import AllocationSchedule
from .problem import ProblemInstance
from .subproblem import RegularizedSubproblem

#: Default regularization parameters; Figure 4 sweeps them over [1e-3, 1e3].
DEFAULT_EPSILON = 1.0


def repair_feasibility(
    x: np.ndarray, workloads: np.ndarray, stations: np.ndarray
) -> np.ndarray:
    """Project a numerically-converged P2 solution onto exact feasibility.

    Iterative solvers satisfy the binding demand constraints only up to
    their tolerance. Clip negatives and scale each deficient column's
    allocation up by the (tiny) missing factor; the capacity headroom of P2
    optima (Theorem 1 keeps them strictly inside whenever the instance is
    overprovisioned) absorbs the adjustment. A column that is all zero
    (cannot happen at a P2 optimum, but guard anyway) gets its workload at
    its station's row.

    Args:
        x: (I, J) solution; columns are users, or cohorts on the
            aggregated path.
        workloads: (J,) demand of each column.
        stations: (J,) the cloud each column is attached to.
    """
    x = np.maximum(x, 0.0)
    workloads = np.asarray(workloads, dtype=float)
    totals = x.sum(axis=0)
    deficient = totals < workloads
    if np.any(deficient):
        scale = np.ones_like(totals)
        positive = totals > 0
        scale[deficient & positive] = (
            workloads[deficient & positive] / totals[deficient & positive]
        )
        x = x * scale[None, :]
        stations = np.asarray(stations)
        for j in np.nonzero(deficient & ~positive)[0]:
            x[int(stations[j]), j] = workloads[j]
    return x


@dataclass
class OnlineRegularizedAllocator:
    """online-approx: solve the regularized subproblem P2 in every slot.

    Attributes:
        eps1: regularizer parameter for the reconfiguration term.
        eps2: regularizer parameter for the migration term.
        backend: convex backend used to solve P2 (default: the structured
            interior-point method).
        tol: optimizer tolerance per subproblem.
        certify: compute a per-slot optimality certificate (KKT residual +
            duality-gap bound, see :mod:`repro.diagnostics.certificates`)
            after every solve, record it into the active telemetry
            registry, and keep it on ``last_certificates``. Pure
            observation — decisions and costs are bit-identical either
            way.
        aggregation: when set, :meth:`as_controller` returns the
            cohort-aggregated controller (:mod:`repro.aggregate`) instead
            of the per-user one: users are clustered by (station,
            workload bucket), one reduced P2 is solved per slot, and the
            solution is split back to users. ``None`` (the default) keeps
            the exact per-user solve.
        budget: optional per-solve :class:`SolveBudget` (deadline and/or
            iteration cap) for live serving. When the budget fires the
            backend returns its last strictly feasible iterate;
            :meth:`step` then repairs it and takes the cheaper of that
            iterate and the attached-cloud allocation — the degradation
            ladder of docs/SERVING.md. A solve that stops without
            certifying its gap takes the same ladder. ``None`` (the
            default) is bit-identical to the unbudgeted solve.
    """

    eps1: float = DEFAULT_EPSILON
    eps2: float = DEFAULT_EPSILON
    backend: ConvexBackend = field(default_factory=InteriorPointBackend)
    tol: float = 1e-8
    certify: bool = False
    aggregation: "AggregationConfig | None" = None
    budget: SolveBudget | None = None
    name: str = "online-approx"
    #: Per-slot solver results from the most recent run (diagnostics).
    last_solves: list[SolverResult] = field(default_factory=list, repr=False)
    #: Per-slot optimality certificates of the most recent run (populated
    #: only when ``certify`` is set).
    last_certificates: list = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        if self.eps1 <= 0 or self.eps2 <= 0:
            raise ValueError("eps1 and eps2 must be positive")
        if self.tol <= 0:
            raise ValueError("tol must be positive")

    def step(
        self, instance: ProblemInstance, slot: int, x_prev: np.ndarray
    ) -> tuple[np.ndarray, SolverResult]:
        """Solve P2 for one slot; returns (x*_t as (I, J), solver result).

        Args:
            instance: the problem instance (or a one-slot wrapper of an
                observation).
            slot: which slot of ``instance`` to solve.
            x_prev: the previous slot's decision x*_{t-1}.
        """
        subproblem = RegularizedSubproblem.from_instance(
            instance, slot, x_prev, eps1=self.eps1, eps2=self.eps2
        )
        program = subproblem.build_program()
        program.budget = self.budget
        result = self.backend.solve(program, tol=self.tol)
        if self.certify:
            # Certify at the solver's own point (pre-repair) with its own
            # multipliers. Deferred import: core must not depend on the
            # diagnostics layer at module scope.
            from ..diagnostics.certificates import (
                certify_solution,
                record_certificate,
            )

            certificate = certify_solution(
                subproblem, result, slot=len(self.last_certificates)
            )
            self.last_certificates.append(certificate)
            record_certificate(certificate)
        x_opt = result.x.reshape(instance.num_clouds, instance.num_users)
        x_opt = repair_feasibility(
            x_opt, instance.workloads, np.asarray(instance.attachment)[slot]
        )
        if result.partial:
            x_opt = self._degrade_partial(x_opt, subproblem, instance, slot)
        return x_opt, result

    def _degrade_partial(
        self,
        x_opt: np.ndarray,
        subproblem: RegularizedSubproblem,
        instance: ProblemInstance,
        slot: int,
    ) -> np.ndarray:
        """The degradation ladder for partial solves.

        A partial iterate — budget-truncated or unconverged — is always
        feasible but can be far from the optimum when the solve stops
        early. The attached-cloud allocation (every user's whole workload
        at its current station) is the natural "no optimization at all"
        reference, so take whichever of the two has the lower P2 value —
        this guarantees a partial slot never costs more than the trivial
        repair would, whenever that repair is itself capacity-feasible.
        """
        attachment = np.asarray(instance.attachment)[slot]
        workloads = np.asarray(instance.workloads, dtype=float)
        attached = np.zeros_like(x_opt)
        attached[attachment, np.arange(attached.shape[1])] = workloads
        over = attached.sum(axis=1) - np.asarray(instance.capacities, dtype=float)
        if float(over.max(initial=0.0)) > 1e-9:
            return x_opt
        if subproblem.objective(attached.ravel()) < subproblem.objective(
            x_opt.ravel()
        ):
            get_registry().counter("solver.partial.attached_repair").inc()
            return attached
        return x_opt

    @property
    def total_solver_iterations(self) -> int:
        """Summed backend iterations of the most recent run (diagnostics)."""
        return sum(result.iterations for result in self.last_solves)

    def run(self, instance: ProblemInstance) -> AllocationSchedule:
        """Run the online algorithm over the whole horizon of the instance.

        A thin adapter over the streaming spine: the batch schedule is the
        controller form driven over the instance's observation stream, so
        both execution modes are the same code path.
        """
        from ..simulation.spine import run_on_spine

        result = run_on_spine(self, instance)
        assert result.schedule is not None
        return result.schedule

    def as_controller(
        self, system: "SystemDescription"
    ) -> "RegularizedController | AggregatedController":
        """The causal (streaming) form of this algorithm.

        With ``aggregation`` set, the controller solves the cohort-reduced
        P2 and disaggregates (see :mod:`repro.aggregate`).
        """
        from ..simulation.controllers import RegularizedController

        controller = RegularizedController(system=system, algorithm=self)
        if self.aggregation is not None:
            return controller.aggregated(self.aggregation)
        return controller
