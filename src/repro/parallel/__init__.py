"""Parallel sweep execution for the experiment grid.

Every figure of the paper is a sweep of independent (algorithm roster x
instance) cells; this package fans those cells across a process pool with
deterministic per-cell seeds, so parallel runs are bit-for-bit identical
to serial ones. See docs/PARALLEL.md.

The executor itself is a generic dependency leaf; the simulation-specific
:class:`SweepCell` lives in :mod:`repro.simulation.cells` and is re-exported
here lazily for backwards compatibility.
"""

from .executor import (
    CellResult,
    SweepError,
    SweepExecutor,
    comparisons_or_raise,
    resolve_workers,
)

__all__ = [
    "CellResult",
    "SweepCell",
    "SweepError",
    "SweepExecutor",
    "comparisons_or_raise",
    "resolve_workers",
]


def __getattr__(name: str):
    """Lazily re-export :class:`SweepCell` without importing the simulation
    layer (which builds on this package) at module scope."""
    if name == "SweepCell":
        from ..simulation.cells import SweepCell

        return SweepCell
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
