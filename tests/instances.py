"""The solve sets of the acceptance gate and of ``tools/against_base.py``'s
digest, the one runner that solves a set, and the one tally of its results.

Each set yields its instances in a fixed order, each an :class:`Instance`
``(label, graph, x0, spec, extra)``: the label names the instance in a
failure line, the solve starts from x0, and extra holds what a set's checks
read besides the spec. theta = 1 and
delta = min(0.4, 0.9/(p-2)) throughout, except the Z^2 R = 60 set's 0.25.

Manufactured solutions take a chosen u_ref > 0 and derive the coefficients
from it, so that u_ref solves the equation exactly (the method of
manufactured solutions; Roache, J. Fluids Eng. 124 (2002)).

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

from collections import namedtuple
from itertools import product

import numpy as np

from yamabe import (ProblemSpec, SolveOptions, constraint_K, cycle_graph, energy_J, graph_distance,
                    lattice_ball, p_laplacian, path_graph, solve, tree_ball)

Instance = namedtuple("Instance", "label graph x0 spec extra")
Tally = namedtuple("Tally", "count certified iters rel failed")


# the graphs of the grid, and of the manufactured sets
GRID_GRAPHS = {
    "path30": lambda: path_graph(30),
    "z2r10": lambda: lattice_ball(2, 10),
    "tree6": lambda: tree_ball(2, 6),
    "cycle20": lambda: cycle_graph(20),
}
MANUFACTURED_GRAPHS = {"path30": GRID_GRAPHS["path30"], "z2r10": GRID_GRAPHS["z2r10"],
                       "z2r20": lambda: lattice_ball(2, 20), "tree26": GRID_GRAPHS["tree6"]}
# g of the g-grid, as a function of the hop distance from the anchor; beyond
# radius 4 the last one puts no constraint mass
G_FIELDS = {
    "1+dist^2": lambda dist: 1.0 + dist**2,
    "1/(1+dist^2)": lambda dist: 1.0 / (1.0 + dist**2),
    "max(0,1-dist/5)": lambda dist: np.maximum(0.0, 1.0 - dist / 5.0),
}
# u_ref as a function of the hop distance from the anchor
PROFILES = {
    "exp(-dist/2)": lambda dist: np.exp(-0.5 * dist),
    "exp(-dist)": lambda dist: np.exp(-dist),
    "(1+dist)^-2": lambda dist: (1.0 + dist) ** -2.0,
}
ALPHA_BELOW_P = ((4.0, 3.0), (2.5, 2.25), (3.0, 2.5), (6.0, 2.25))
P_EQUALS_ALPHA = ((4.0, 4.0), (3.0, 3.0))
REL_LEVELS = (1e-10, 1e-6, 1e-2, 0.5)


def _graphs(graphs):
    """(name, graph, x0, hop distances from x0 as floats) of each graph."""
    for name, make in graphs.items():
        graph, x0 = make()
        yield name, graph, x0, graph_distance(graph, x0).astype(np.float64)


def _spec(p, alpha, h, g=None, delta=None):
    """theta = 1; g = 1 and delta = min(0.4, 0.9/(p-2)) unless given."""
    return ProblemSpec(p=p, alpha=alpha, delta=min(0.4, 0.9 / (p - 2.0)) if delta is None else delta,
                       theta=1.0, h=h, g=np.ones(h.size) if g is None else g)


def _h(dist, k):
    """1 + dist^k, or exactly 1 for k = 0."""
    return 1.0 + dist**k if k else np.ones(dist.size)


def grid():
    """The 180-instance grid: the grid's graphs x p in {2.2, 2.5, 3, 4, 6} x
    every alpha in {2.25, 2.5, 3, 4, 6, p} with 2 < alpha <= p x h in {1,
    1+dist^2, 1+dist^4}, g = 1."""
    for name, graph, x0, dist in _graphs(GRID_GRAPHS):
        for p in (2.2, 2.5, 3.0, 4.0, 6.0):
            alphas = sorted({a for a in (2.25, 2.5, 3.0, 4.0, 6.0, p) if 2.0 < a <= p})
            for alpha, k in product(alphas, (0, 2, 4)):
                yield Instance(f"{name} p={p:g} alpha={alpha:g} h=1+dist^{k}", graph, x0,
                               _spec(p, alpha, _h(dist, k)), {})


def flat():
    """The 12 flat instances: the grid's graphs x p = alpha in {3, 4, 6},
    h = g = 1, whose exact solution is the constant on K = 1."""
    for name, graph, x0, dist in _graphs(GRID_GRAPHS):
        for p in (3.0, 4.0, 6.0):
            yield Instance(f"{name} p={p:g}", graph, x0, _spec(p, p, _h(dist, 0)), {})


def g_grid():
    """The g-grid's 180 p = alpha instances: the grid's graphs x g in
    G_FIELDS x p = alpha in {2.2, 2.5, 3, 4, 6} x h in {1, 1+dist^2,
    1+dist^4}; extra["g"] names g."""
    for name, graph, x0, dist in _graphs(GRID_GRAPHS):
        for (g_name, g), p, k in product(G_FIELDS.items(), (2.2, 2.5, 3.0, 4.0, 6.0), (0, 2, 4)):
            yield Instance(f"{name} p={p:g} h=1+dist^{k} g={g_name}", graph, x0,
                           _spec(p, p, _h(dist, k), g(dist)), {"g": g_name})


def z2_r60():
    """Six solves on the Z^2 ball of radius 60: p = 4, alpha in {2.5, 3,
    3.5}, h in {1+dist^2, 1+dist^4}, g = 1, delta = 0.25."""
    graph, x0 = lattice_ball(2, 60)
    dist = graph_distance(graph, x0).astype(np.float64)
    for alpha, k in product((2.5, 3.0, 3.5), (2, 4)):
        yield Instance(f"z2r60 p=4 alpha={alpha:g} h=1+dist^{k}", graph, x0,
                       _spec(4.0, alpha, _h(dist, k), delta=0.25), {})


def proportional(*eps):
    """For each eps, the 32 p = alpha instances with g = 1 + dist^k (k = 1,
    2) and h = 2 g (1 + eps dist/(1+dist)) on the grid's graphs with p in
    {2.5, 3, 4, 6}.  For eps = 0 (the proportional set) h / (theta g) = 2
    exactly, so the constant on K = 1 is the first eigenfunction, with
    eigen_factor 2; eps = 1e-3 and 1e-1 make the near-proportional set."""
    for e in eps:
        for name, graph, x0, dist in _graphs(GRID_GRAPHS):
            for p, k in product((2.5, 3.0, 4.0, 6.0), (1, 2)):
                g = 1.0 + dist**k
                h = 2.0 * g * (1.0 + e * dist / (1.0 + dist))
                yield Instance(f"{name} p={p:g} g=1+dist^{k} eps={e:g}", graph, x0,
                               _spec(p, p, h, g), {})


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
    spec = _spec(p, alpha, h, np.full(graph.n, big_g))
    u_bar = u_ref * constraint_K(graph, spec, u_ref) ** (-1.0 / alpha)
    return spec, u_ref, energy_J(graph, spec, u_bar)


def _manufactured(pairs):
    """Every manufactured graph x (p, alpha) pair x profile; extra holds the
    graph's name, u_ref and gamma_ref."""
    for name, graph, x0, _ in _graphs(MANUFACTURED_GRAPHS):
        for (p, alpha), profile in product(pairs, PROFILES):
            spec, u_ref, gamma_ref = manufactured(graph, x0, p, alpha, profile)
            yield Instance(f"{name} p={p:g} alpha={alpha:g} u_ref={profile}", graph, x0, spec,
                           {"graph": name, "u_ref": u_ref, "gamma_ref": gamma_ref})


def alpha_below_p():
    """The 48 alpha < p manufactured instances: 4 graphs x 4 (p, alpha) x 3 profiles."""
    return _manufactured(ALPHA_BELOW_P)


def p_equals_alpha():
    """The 24 p = alpha manufactured instances: 4 graphs x 2 (p, alpha) x 3 profiles."""
    return _manufactured(P_EQUALS_ALPHA)


def run(instances, **options):
    """Solve each instance from its x0 with ``SolveOptions(**options)``;
    yields (instance, SolveResult)."""
    for instance in instances:
        yield instance, solve(instance.graph, instance.spec, SolveOptions(x0=instance.x0, **options))


def tally(results) -> Tally:
    """Of (instance, SolveResult) pairs: the instance count, how many are
    certified (converged) and strictly positive, the iteration total, how
    many have ``residual_rel_sup`` above each of REL_LEVELS, and one line
    for each instance that is not certified and positive."""
    count, iters, rel, failed = 0, 0, [0] * len(REL_LEVELS), []
    for instance, res in results:
        count += 1
        iters += res.trace.iters
        rel = [n + (res.residual_rel_sup > level) for n, level in zip(rel, REL_LEVELS)]
        if not (res.converged and res.positive and res.min_u > 0.0):
            failed.append(f"{instance.label}: converged={res.converged}, min u={res.min_u:.3g}")
    return Tally(count, count - len(failed), iters, tuple(rel), failed)


def accuracy(results) -> tuple[dict, float]:
    """Of manufactured (instance, SolveResult) pairs: per graph name the
    worst |u/u_ref - 1|, and the worst |gamma/gamma_ref - 1|. For p = alpha
    the first is taken on the bulk, the vertices where u_ref >= 1e-3
    max u_ref, with u_ref put on K = 1, and the second is
    |eigen_factor/Lambda - 1|."""
    worst, worst_ref = {}, 0.0
    for instance, res in results:
        spec, u_ref, ref = instance.spec, instance.extra["u_ref"], instance.extra["gamma_ref"]
        if spec.alpha < spec.p:
            err, ref_err = float(np.abs(res.u / u_ref - 1.0).max()), abs(res.gamma / ref - 1.0)
        else:
            bulk = u_ref >= 1e-3 * u_ref.max()
            u_exact = u_ref * constraint_K(instance.graph, spec, u_ref) ** (-1.0 / spec.alpha)
            err = float(np.abs(res.u[bulk] / u_exact[bulk] - 1.0).max())
            ref_err = abs(res.eigen_factor / ref - 1.0)
        name = instance.extra["graph"]
        worst[name] = max(worst.get(name, 0.0), err)
        worst_ref = max(worst_ref, ref_err)
    return worst, worst_ref
