"""The paper's core: problem model, costs, transformation, online algorithm."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".allocation": ("FEASIBILITY_TOL", "AllocationSchedule", "FeasibilityReport"),
        ".bounds": (
            "competitive_ratio_bound",
            "eta",
            "gamma",
            "suggest_epsilon",
            "tau",
        ),
        ".duality": (
            "ConstructedDual",
            "DualityCertificate",
            "construct_dual_solution",
            "duality_certificate",
            "p1_value",
            "recover_slot_duals",
            "solve_dual",
            "solve_p3",
        ),
        ".costs": (
            "CostBreakdown",
            "cost_breakdown",
            "migration_cost",
            "migration_volumes",
            "operation_cost",
            "positive_part",
            "reconfiguration_cost",
            "service_quality_cost",
            "total_cost",
        ),
        ".problem": ("CostWeights", "ProblemInstance"),
        ".regularization": ("DEFAULT_EPSILON", "OnlineRegularizedAllocator"),
        ".rounding": (
            "RoundingError",
            "integrality_gap",
            "repair_capacity",
            "round_schedule",
            "round_user_allocation",
        ),
        ".subproblem": ("RegularizedSubproblem",),
        ".transformation": ("combined_migration_prices", "p1_migration_cost"),
    },
)
