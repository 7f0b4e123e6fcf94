"""LP and convex solver substrate (replaces the paper's GLPK/Pyomo/IPOPT)."""

from .base import (
    ConvexBackend,
    ConvexProgram,
    SolveBudget,
    SolverError,
    SolverResult,
)
from .interior_point import InteriorPointBackend
from .linear import LinearProgramBuilder, VariableBlock

__all__ = [
    "ConvexBackend",
    "ConvexProgram",
    "InteriorPointBackend",
    "LinearProgramBuilder",
    "SolveBudget",
    "SolverError",
    "SolverResult",
    "VariableBlock",
]
