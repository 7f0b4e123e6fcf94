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

from typing import Iterable

from ..telemetry.watch import ConvergenceSummary


def trace_events(source) -> list[dict]:
    """Extract ``solver.ipm.trace`` events from any telemetry source.

    Accepts a loaded manifest (:class:`repro.telemetry.manifest.RunRecord`),
    a live :class:`repro.telemetry.MetricsRegistry`, or a plain iterable
    of event dicts.
    """
    events: Iterable[dict] = getattr(source, "events", source)
    return [e for e in events if e.get("type") == "solver.ipm.trace"]


def summarize_convergence(source) -> ConvergenceSummary:
    """Summarize every interior-point solve recorded in ``source``.

    Computed by the manifest fold's accumulator, so ``doctor`` and
    ``watch`` report the same numbers.
    """
    summary = ConvergenceSummary()
    for event in trace_events(source):
        summary.add(event)
    return summary

