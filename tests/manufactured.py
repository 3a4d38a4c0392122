"""Manufactured solutions: a chosen u_ref > 0 and coefficients derived from
it, so that u_ref solves the equation exactly (the method of manufactured
solutions; Roache, J. Fluids Eng. 124 (2002)).

For alpha < p, with theta = 1, g is the constant
G = max(1, 2 max(-lap_p u_ref / u_ref^(alpha-1))) and
h = (G u_ref^(alpha-1) + lap_p u_ref) / u_ref^(p-1), which is > 0.  The
positive solution is unique there (Diaz & Saa), so a solve must return
u_ref, and gamma_ref = J(u_ref / K(u_ref)^(1/alpha)).

For p = alpha, g = 1 and, with
Lambda = max(1, 2 max(-lap_p u_ref / u_ref^(p-1))), h = Lambda + lap_p u_ref /
u_ref^(p-1), which is >= Lambda / 2 > 0.  u_ref is then a positive
eigenfunction, hence the first one (Allegretto & Huang, Nonlinear Anal. 32
(1998)), so a solve must return u_bar = u_ref / K(u_ref)^(1/alpha) with
eigen_factor Lambda, and gamma_ref = J(u_bar) = Lambda.
"""

import numpy as np

from yamabe import (
    ProblemSpec,
    constraint_K,
    cycle_graph,
    energy_J,
    graph_distance,
    lattice_ball,
    p_laplacian,
    path_graph,
    tree_ball,
)

GRAPHS = {
    "path30": lambda: path_graph(30),
    "z2r10": lambda: lattice_ball(2, 10),
    "z2r20": lambda: lattice_ball(2, 20),
    "tree26": lambda: tree_ball(2, 6),
}
# u_ref as a function of the hop distance from the anchor
PROFILES = {
    "exp(-dist/2)": lambda dist: np.exp(-0.5 * dist),
    "exp(-dist)": lambda dist: np.exp(-dist),
    "(1+dist)^-2": lambda dist: (1.0 + dist) ** -2.0,
}
ALPHA_BELOW_P = ((4.0, 3.0), (2.5, 2.25), (3.0, 2.5), (6.0, 2.25))
P_EQUALS_ALPHA = ((4.0, 4.0), (3.0, 3.0))


def manufactured(graph, x0, p, alpha, profile):
    """(spec, u_ref, gamma_ref) of the instance with u_ref = profile(dist);
    for p = alpha, gamma_ref is also the exact eigen_factor."""
    u_ref = PROFILES[profile](graph_distance(graph, x0).astype(np.float64))
    lap = p_laplacian(graph, p, u_ref)
    if alpha < p:
        big_g = max(1.0, 2.0 * float((-lap / u_ref ** (alpha - 1.0)).max()))
        h = (big_g * u_ref ** (alpha - 1.0) + lap) / u_ref ** (p - 1.0)
    else:
        big_g = 1.0
        h = max(1.0, 2.0 * float((-lap / u_ref ** (p - 1.0)).max())) + lap / u_ref ** (p - 1.0)
    spec = ProblemSpec(p=p, alpha=alpha, delta=min(0.4, 0.9 / (p - 2.0)), theta=1.0,
                       h=h, g=np.full(graph.n, big_g))
    u_bar = u_ref * constraint_K(graph, spec, u_ref) ** (-1.0 / alpha)
    return spec, u_ref, energy_J(graph, spec, u_bar)


def _instances(pairs):
    """Every graph x (p, alpha) pair x profile, each as (graph name, graph,
    x0, profile name, spec, u_ref, gamma_ref)."""
    for name, make in GRAPHS.items():
        graph, x0 = make()
        for p, alpha in pairs:
            for profile in PROFILES:
                yield (name, graph, x0, profile, *manufactured(graph, x0, p, alpha, profile))


def alpha_below_p_set():
    """The 48 alpha < p instances: 4 graphs x 4 (p, alpha) x 3 profiles."""
    return _instances(ALPHA_BELOW_P)


def p_equals_alpha_set():
    """The 24 p = alpha instances: 4 graphs x 2 (p, alpha) x 3 profiles."""
    return _instances(P_EQUALS_ALPHA)


# the graphs of acceptance 12's grid
GRID_GRAPHS = {
    "path30": lambda: path_graph(30),
    "z2r10": lambda: lattice_ball(2, 10),
    "tree6": lambda: tree_ball(2, 6),
    "cycle20": lambda: cycle_graph(20),
}


def proportional_set(eps):
    """The 32 p = alpha instances with g = 1 + dist^k (k = 1, 2) and
    h = 2 g (1 + eps dist/(1+dist)), theta = 1, on the grid's graphs with
    p in {2.5, 3, 4, 6}, each as (graph name, graph, x0, spec).  For eps = 0
    (the proportional set) h / (theta g) = 2 exactly, so the constant on
    K = 1 is the first eigenfunction, with eigen_factor 2; eps = 1e-3 and
    1e-1 make the near-proportional set."""
    for name, make in GRID_GRAPHS.items():
        graph, x0 = make()
        dist = graph_distance(graph, x0).astype(np.float64)
        for p in (2.5, 3.0, 4.0, 6.0):
            for k in (1, 2):
                g = 1.0 + dist**k
                spec = ProblemSpec(p=p, alpha=p, delta=min(0.4, 0.9 / (p - 2.0)), theta=1.0,
                                   h=2.0 * g * (1.0 + eps * dist / (1.0 + dist)), g=g)
                yield name, graph, x0, spec
