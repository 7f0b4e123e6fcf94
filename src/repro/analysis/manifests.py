"""Read telemetry run manifests back and check their cost accounting.

A manifest (``repro.telemetry.manifest``) records one ``slot`` event per
accounted slot and one ``run_end`` event per algorithm run. Because both
come from the same :class:`repro.simulation.accounting.CostAccumulator`,
the per-slot costs of a run must sum to its final breakdown — this module
makes that invariant checkable after the fact, which doubles as a
truncation/corruption test for archived manifests.

Runs are keyed by the ``(cell, run)`` context tags the engine and the
sweep cells attach: ``run`` ids are unique within one registry, and every
parallel sweep cell records into its own registry, so the pair is unique
across a whole merged sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from ..telemetry.manifest import RunRecord, read_manifest
from ..telemetry.watch import ManifestSummary

#: The ``run_end`` totals' name of each of the fold's short cost keys.
_COST_NAMES = {
    "op": "operation",
    "sq": "service_quality",
    "rc": "reconfiguration",
    "mg": "migration",
    "total": "total",
}


def load_manifest(path: str | Path, *, strict: bool = True) -> RunRecord:
    """Load a JSON-lines run manifest (thin alias of ``read_manifest``).

    ``strict=False`` tolerates live (still-growing) or torn manifests:
    every complete record is returned and the record is flagged
    ``truncated=True`` — note :func:`verify_manifest_costs` will then
    reject runs whose ``run_end`` has not been written yet.
    """
    return read_manifest(path, strict=strict)


@dataclass(frozen=True)
class RunCostCheck:
    """Per-slot costs of one run, against its reported final breakdown.

    Attributes:
        key: the run's ``(cell, run)`` identity.
        algorithm: the algorithm name tagged on the run.
        slots: number of slot events found for the run.
        summed: per-slot costs summed — keys ``operation``,
            ``service_quality``, ``reconfiguration``, ``migration``,
            ``total`` (the weighted P0 objective).
        reported: the ``run_end`` event's ``totals`` (same keys).
    """

    key: tuple
    algorithm: str
    slots: int
    summed: dict[str, float]
    reported: dict[str, float]

    @property
    def deviation(self) -> float:
        """Largest |summed - reported| across the five cost entries."""
        return max(
            abs(self.summed[name] - self.reported[name]) for name in self.summed
        )

    def ok(self, tol: float = 1e-9) -> bool:
        """Whether the sums match the report to ``tol`` (relative to scale)."""
        scale = max(1.0, abs(self.reported.get("total", 0.0)))
        return self.deviation <= tol * scale


def verify_manifest_costs(record: RunRecord) -> list[RunCostCheck]:
    """Cross-check every run's slot events against its ``run_end`` totals.

    The per-run sums are :class:`repro.telemetry.watch.ManifestSummary`'s,
    the fold that ``doctor`` and ``watch`` read. Returns one
    :class:`RunCostCheck` per ``run_end`` event in file order. Raises
    ``ValueError`` when a run has no slot events at all, when a slot event
    lacks a cost field, or when a slot event points at a run without a
    ``run_end`` (a truncated manifest).
    """
    summary = ManifestSummary()
    summary.update_all(record.events)
    ended = [(key, view) for key, view in summary.runs.items() if view.finished]
    checks: list[RunCostCheck] = []
    for key, view in sorted(ended, key=lambda item: item[1].ended):
        if view.slots == 0:
            raise ValueError(f"run {key} has a run_end but no slot events")
        if view.incomplete:
            raise ValueError(
                f"run {key} has {view.incomplete} slot event(s) missing a "
                "cost field"
            )
        checks.append(
            RunCostCheck(
                key=key,
                algorithm=view.algorithm,
                slots=view.slots,
                summed={
                    _COST_NAMES[name]: value for name, value in view.costs.items()
                },
                reported={
                    name: float(value) for name, value in view.reported.items()
                },
            )
        )
    orphans = [key for key, view in summary.runs.items() if not view.finished]
    if orphans:
        raise ValueError(
            f"{len(orphans)} run(s) have slot events but no run_end record "
            f"(truncated manifest?): {sorted(orphans)[:5]}"
        )
    return checks
