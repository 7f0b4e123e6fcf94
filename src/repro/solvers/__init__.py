"""LP and convex solver substrate (replaces the paper's GLPK/Pyomo/IPOPT)."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".base": (
            "ConvexBackend",
            "ConvexProgram",
            "SolveBudget",
            "SolverError",
            "SolverResult",
        ),
        ".interior_point": ("InteriorPointBackend",),
        ".linear": ("LinearProgramBuilder", "VariableBlock"),
    },
)
