"""Solver tests treat a RuntimeWarning from the P2 kernel as a failure.

The kernel's iterates stay strictly interior, so a divide-by-zero,
overflow or invalid-value warning raised from ``repro.solvers.batched``
means a step went wrong even when the result still looks right.
"""

from pathlib import Path

import pytest

KERNEL_WARNINGS_FAIL = pytest.mark.filterwarnings(
    r"error::RuntimeWarning:repro\.solvers\.batched"
)


def pytest_collection_modifyitems(config, items):
    here = Path(__file__).parent
    for item in items:
        if here in item.path.parents:
            item.add_marker(KERNEL_WARNINGS_FAIL)
