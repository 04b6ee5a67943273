"""Minimum mean-squared-derivative trajectory costs.

Closed-form matrices and triangular factorizations for the two-point
boundary problem of minimizing the integrated squared n-th derivative,
cost evaluation along three cross-validating routes, optimal polynomial
trajectories, independent elimination/quadrature oracles, and discrete
optimal transport with the cost as ground metric.
"""

from .cost import (
    ROUTES,
    cost,
    eval_trajectory,
    free_flight_target,
    hessian,
    is_free_flight,
    reduce_order,
    solve_trajectory,
)
from .matrices import (
    N_MAX,
    build_A,
    build_A_inv,
    build_B,
    build_K,
    build_L,
    build_L_inv,
    build_U,
    build_U_inv,
    build_V,
    build_b,
    det_A,
    h_power_table,
    taylor_propagate,
)
from .oracle import elimination_det, gauss_legendre, quadrature_cost
from .transport import ground_cost_matrix, solve_assignment, w2_uniform
from .types import (
    BoundaryState,
    ConsistencyError,
    CostBreakdown,
    CostProblem,
    DiscreteMeasure,
    DomainError,
    TrajectoryPolynomial,
    make_problem,
)

__version__ = "0.1.0"

__all__ = [
    "BoundaryState",
    "ConsistencyError",
    "CostBreakdown",
    "CostProblem",
    "DiscreteMeasure",
    "DomainError",
    "N_MAX",
    "ROUTES",
    "TrajectoryPolynomial",
    "build_A",
    "build_A_inv",
    "build_B",
    "build_K",
    "build_L",
    "build_L_inv",
    "build_U",
    "build_U_inv",
    "build_V",
    "build_b",
    "cost",
    "det_A",
    "elimination_det",
    "eval_trajectory",
    "free_flight_target",
    "gauss_legendre",
    "ground_cost_matrix",
    "h_power_table",
    "hessian",
    "is_free_flight",
    "make_problem",
    "quadrature_cost",
    "reduce_order",
    "solve_assignment",
    "solve_trajectory",
    "taylor_propagate",
    "w2_uniform",
]
