"""Per-slot allocation timelines.

Aggregated ratios hide *when* an online algorithm loses ground; the churn
timeline shows how much allocation moves in each slot.
"""

from __future__ import annotations

import numpy as np

from ..simulation.results import RunResult


def churn_timeline(run: RunResult) -> np.ndarray:
    """Total allocation movement per slot: sum_ij |x_t - x_{t-1}|, shape (T,).

    The physical quantity behind the dynamic costs — useful for spotting
    oscillating algorithms independent of their prices.
    """
    x, prev = run.schedule.with_previous()
    return np.abs(x - prev).sum(axis=(1, 2))
