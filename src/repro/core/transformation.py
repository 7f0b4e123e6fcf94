"""The gap-preserving transformation P0 -> P1 (paper Section III-A, Lemma 1).

P0 charges migration bidirectionally (b_i^out on the source, b_i^in on the
destination). P1 replaces this with a single *inbound* charge at the
combined price b_i = b_i^out + b_i^in. Lemma 1 shows the two objectives
differ by at most the constant sigma = Sum_i b_i^out C_i, so any
r-competitive algorithm for P1 is r-competitive for P0 (up to r*sigma).
The test suite states Lemma 1 itself (``tests/core/lemma1.py``).
"""

from __future__ import annotations

import numpy as np

from .allocation import AllocationSchedule
from .costs import migration_volumes
from .problem import ProblemInstance


def combined_migration_prices(instance: ProblemInstance) -> np.ndarray:
    """b_i = b_i^out + b_i^in (the P1 migration price)."""
    return np.asarray(instance.migration_prices.combined, dtype=float)


def p1_migration_cost(schedule: AllocationSchedule, instance: ProblemInstance) -> np.ndarray:
    """Per-slot P1 migration cost: Sum_i b_i z_{i,t}^in."""
    _, z_in = migration_volumes(schedule)
    return z_in @ combined_migration_prices(instance)
