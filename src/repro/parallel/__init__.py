"""Parallel sweep execution for the experiment grid.

Every figure of the paper is a sweep of independent (algorithm roster x
instance) cells; this package fans those cells across a process pool with
deterministic per-cell seeds, so parallel runs are bit-for-bit identical
to serial ones. See docs/PARALLEL.md.

The executor itself is a generic dependency leaf; the simulation-specific
:class:`SweepCell` lives in :mod:`repro.simulation.cells` and is re-exported
here, lazily like every package re-export (:mod:`repro._lazy`), for
backwards compatibility.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".executor": (
            "CellResult",
            "SweepError",
            "SweepExecutor",
            "comparisons_or_raise",
            "resolve_workers",
        ),
        "..simulation.cells": ("SweepCell",),
    },
)
