"""Positive solutions of p-th Yamabe type equations on weighted graphs.

The package minimizes the p-Dirichlet energy J(u) under the constraint
K(u) = 1, extracts the Lagrange multiplier, and rescales the minimizer to
a positive solution of -lap_p u + h u^{p-1} = g u^{alpha-1}, verifying
numerically every inequality the construction relies on.
"""

from ._kernels import BACKEND
from .errors import (
    ConsistencyError,
    DegenerateConstraintError,
    HypothesisError,
    InfeasibleConstraintError,
    TruncationError,
)
from .families import GraphFamily, ProblemFamily, evaluate_field
from .functionals import (
    ProblemSpec,
    K_derivative_action,
    J_gradient,
    constraint_K,
    energy_J,
    h_norm,
    kprime_lipschitz_probe,
    nonlinearity_G,
)
from .graph import (
    WeightedGraph,
    as_vertex_function,
    cycle_graph,
    eccentricity,
    generate,
    graph_distance,
    graph_from_dict,
    graph_to_dict,
    integrate,
    lattice_ball,
    load_graph,
    lq_norm,
    path_graph,
    save_graph,
    tree_ball,
    truncate_ball,
)
from .operators import (
    dirichlet_energy,
    ibp_identity_check,
    p_gradient_norm,
    p_laplacian,
)
from .solver import (
    MinimizeTrace,
    SolveOptions,
    SolveResult,
    TruncationChoice,
    choose_truncation_radius,
    k_tail_bound,
    lagrange_multiplier,
    minimize_constrained,
    rescale_solution,
    solve,
)
from .verify import (
    PositivityCertificate,
    ResidualReport,
    exhaustion_study,
    hypotheses_check,
    inequality_suite,
    positivity_certificate,
    residual_report,
)

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "ConsistencyError",
    "DegenerateConstraintError",
    "HypothesisError",
    "InfeasibleConstraintError",
    "TruncationError",
    "GraphFamily",
    "ProblemFamily",
    "evaluate_field",
    "ProblemSpec",
    "K_derivative_action",
    "J_gradient",
    "constraint_K",
    "energy_J",
    "h_norm",
    "kprime_lipschitz_probe",
    "nonlinearity_G",
    "WeightedGraph",
    "as_vertex_function",
    "cycle_graph",
    "eccentricity",
    "generate",
    "graph_distance",
    "graph_from_dict",
    "graph_to_dict",
    "integrate",
    "lattice_ball",
    "load_graph",
    "lq_norm",
    "path_graph",
    "save_graph",
    "tree_ball",
    "truncate_ball",
    "dirichlet_energy",
    "ibp_identity_check",
    "p_gradient_norm",
    "p_laplacian",
    "MinimizeTrace",
    "SolveOptions",
    "SolveResult",
    "TruncationChoice",
    "choose_truncation_radius",
    "k_tail_bound",
    "lagrange_multiplier",
    "minimize_constrained",
    "rescale_solution",
    "solve",
    "PositivityCertificate",
    "ResidualReport",
    "exhaustion_study",
    "hypotheses_check",
    "inequality_suite",
    "positivity_certificate",
    "residual_report",
]
