"""The paper's core: problem model, costs, transformation, online algorithm."""

from .allocation import FEASIBILITY_TOL, AllocationSchedule, FeasibilityReport
from .bounds import (
    competitive_ratio_bound,
    eta,
    gamma,
    suggest_epsilon,
    tau,
)
from .duality import (
    ConstructedDual,
    DualityCertificate,
    construct_dual_solution,
    duality_certificate,
    p1_value,
    recover_slot_duals,
    solve_dual,
    solve_p3,
)
from .costs import (
    CostBreakdown,
    cost_breakdown,
    migration_cost,
    migration_volumes,
    operation_cost,
    positive_part,
    reconfiguration_cost,
    service_quality_cost,
    total_cost,
)
from .problem import CostWeights, ProblemInstance
from .regularization import DEFAULT_EPSILON, OnlineRegularizedAllocator
from .rounding import (
    RoundingError,
    integrality_gap,
    repair_capacity,
    round_schedule,
    round_user_allocation,
)
from .subproblem import RegularizedSubproblem
from .transformation import (
    combined_migration_prices,
    p1_migration_cost,
)

__all__ = [
    "AllocationSchedule",
    "ConstructedDual",
    "CostBreakdown",
    "CostWeights",
    "DEFAULT_EPSILON",
    "DualityCertificate",
    "FEASIBILITY_TOL",
    "FeasibilityReport",
    "OnlineRegularizedAllocator",
    "ProblemInstance",
    "RegularizedSubproblem",
    "RoundingError",
    "combined_migration_prices",
    "competitive_ratio_bound",
    "construct_dual_solution",
    "cost_breakdown",
    "duality_certificate",
    "eta",
    "gamma",
    "integrality_gap",
    "migration_cost",
    "migration_volumes",
    "operation_cost",
    "p1_value",
    "p1_migration_cost",
    "positive_part",
    "recover_slot_duals",
    "reconfiguration_cost",
    "repair_capacity",
    "round_schedule",
    "round_user_allocation",
    "service_quality_cost",
    "solve_dual",
    "solve_p3",
    "suggest_epsilon",
    "tau",
    "total_cost",
]
