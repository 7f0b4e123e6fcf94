"""Lazy package re-exports (PEP 562).

Every package ``__init__`` in :mod:`repro` names its public API by the
submodule that defines it and hands that table to :func:`lazy_exports`.
Importing a package then imports none of its submodules; a name's
submodule is imported the first time the name is read, and the value is
cached on the package. So a process imports only the modules it uses: the
allocation server never loads the LP baselines (``scipy.optimize``) or the
metro topology (``networkx``) that other commands re-export next to it
(docs/PERFORMANCE.md §12).

The rule that goes with it: package re-exports are lazy, leaf imports stay
eager. A module keeps its third-party and sibling imports at module top, so
a process that imports a module (the sweep parent importing its roster
before it forks workers) holds everything that module runs.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable


def lazy_exports(
    package: str, exports: dict[str, tuple[str, ...]]
) -> tuple[list[str], Callable[[str], object], Callable[[], list[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package``.

    ``exports`` maps a module path relative to ``package`` (``".costs"``,
    ``"..simulation.cells"``) to the names it re-exports.
    """
    home = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        if name not in home:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(home[name], package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | home.keys())

    return list(home), __getattr__, __dir__
