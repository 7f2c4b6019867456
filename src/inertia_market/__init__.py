"""Virtual inertia procurement: worst-case H2 performance, centralized
planning, a sealed-bid auction with externality payments, and a
capacity-proportional regulatory comparator, driven by YAML scenarios."""

from .auction import (
    AuctionOutcome,
    AuditReport,
    incentive_audit,
    run_auction,
    run_auction_hard,
)
from .errors import (
    AuditError,
    ContractError,
    GridError,
    InertiaMarketError,
    InfeasibleError,
    NumericsError,
    ScenarioError,
)
from .grid import (
    Grid,
    StateSpace,
    assemble_state_space,
    build_grid,
    laplacian,
    output_matrix_primary_effort,
)
from .h2 import (
    GramianSolution,
    h2_norm_sq_gramian,
    h2_primary_effort_closed,
    solve_constrained_lyapunov,
    upper_bound_ub,
    upper_bound_worst,
)
from .planner import (
    Agent,
    Allocation,
    CostCurve,
    dual_gamma_iterate,
    regulatory_allocation,
    solve_centralized_hard,
    solve_centralized_soft,
)
from .report import Report, ReportRow, ReportSummary, emit_report, make_report
from .robust import (
    DisturbanceBudget,
    WorstCase,
    expand_performance_constraint,
    worst_case_metric,
)
from .scenario import Scenario, ScenarioAgent, case_study, emit_scenario, parse_scenario

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # grid
    "Grid",
    "StateSpace",
    "build_grid",
    "laplacian",
    "assemble_state_space",
    "output_matrix_primary_effort",
    # h2
    "GramianSolution",
    "solve_constrained_lyapunov",
    "h2_norm_sq_gramian",
    "h2_primary_effort_closed",
    "upper_bound_ub",
    "upper_bound_worst",
    # robust
    "DisturbanceBudget",
    "WorstCase",
    "worst_case_metric",
    "expand_performance_constraint",
    # planner
    "CostCurve",
    "Agent",
    "Allocation",
    "solve_centralized_soft",
    "solve_centralized_hard",
    "dual_gamma_iterate",
    "regulatory_allocation",
    # auction
    "AuctionOutcome",
    "AuditReport",
    "run_auction",
    "run_auction_hard",
    "incentive_audit",
    # scenario / report
    "Scenario",
    "ScenarioAgent",
    "parse_scenario",
    "emit_scenario",
    "case_study",
    "Report",
    "ReportRow",
    "ReportSummary",
    "make_report",
    "emit_report",
    # errors
    "InertiaMarketError",
    "GridError",
    "ScenarioError",
    "InfeasibleError",
    "NumericsError",
    "ContractError",
    "AuditError",
]
