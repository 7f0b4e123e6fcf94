"""Solver convergence trajectories, read back from telemetry.

The structured IPM emits one ``solver.ipm.trace`` event per solve when
telemetry is active (see ``repro.solvers.batched``): per predictor-corrector
step the centring target ``mu``, the average ``complementarity``, the
``dual_residual`` and the ``step`` length, plus the terminal
complementarity (``mu_final``) and the certified relative duality gap at
the returned point (``gap_final``). Wall time alone cannot distinguish "the
machine was busy" from "the solver started struggling"; these series can.
This module summarizes them — from a live registry, a list of events, or a
loaded manifest — so benchmark records and the ``doctor`` report can gate
on *behavioural* regressions (iteration blow-ups, uncertified terminal
points) deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .certificates import DEFAULT_GAP_TOL


@dataclass(frozen=True)
class ConvergenceSummary:
    """Aggregate view of every recorded interior-point solve.

    Attributes:
        solves: number of ``solver.ipm.trace`` events seen.
        total_iterations: summed iterations across solves.
        max_iterations: iterations of the heaviest solve.
        mean_iterations: mean iterations per solve (0 when empty).
        max_final_mu: largest terminal average complementarity (how
            "unfinished" the loosest solve was).
        max_final_gap: largest terminal certified relative duality gap —
            ~0.1 * tol at convergence; budget-truncated solves report how
            far from optimal their partial point was left.
        uncertified: solves whose terminal certified gap exceeds the
            certificate tolerance (``DEFAULT_GAP_TOL``) — 0 unless budgets
            truncated solves or the solver stalled.
    """

    solves: int
    total_iterations: int
    max_iterations: int
    mean_iterations: float
    max_final_mu: float
    max_final_gap: float
    uncertified: int

    def as_dict(self) -> dict:
        """Plain-dict form for bench records and manifest events."""
        return {
            "solves": self.solves,
            "total_iterations": self.total_iterations,
            "max_iterations": self.max_iterations,
            "mean_iterations": self.mean_iterations,
            "max_final_mu": self.max_final_mu,
            "max_final_gap": self.max_final_gap,
            "uncertified": self.uncertified,
        }


def trace_events(source) -> list[dict]:
    """Extract ``solver.ipm.trace`` events from any telemetry source.

    Accepts a loaded manifest (:class:`repro.telemetry.manifest.RunRecord`),
    a live :class:`repro.telemetry.MetricsRegistry`, or a plain iterable
    of event dicts.
    """
    if hasattr(source, "events_of_type"):  # RunRecord
        return source.events_of_type("solver.ipm.trace")
    events: Iterable[dict] = getattr(source, "events", source)
    return [e for e in events if e.get("type") == "solver.ipm.trace"]


def summarize_convergence(source) -> ConvergenceSummary:
    """Summarize every interior-point solve recorded in ``source``."""
    events = trace_events(source)
    iterations = [int(e.get("iterations", 0)) for e in events]
    final_mu = [float(e.get("mu_final", 0.0)) for e in events]
    final_gap = [float(e.get("gap_final", 0.0)) for e in events]
    return ConvergenceSummary(
        solves=len(events),
        total_iterations=sum(iterations),
        max_iterations=max(iterations, default=0),
        mean_iterations=(
            sum(iterations) / len(iterations) if iterations else 0.0
        ),
        max_final_mu=max(final_mu, default=0.0),
        max_final_gap=max(final_gap, default=0.0),
        uncertified=sum(gap > DEFAULT_GAP_TOL for gap in final_gap),
    )


def iteration_series(source) -> list[int]:
    """Iterations per solve, in recorded order."""
    return [int(e.get("iterations", 0)) for e in trace_events(source)]
