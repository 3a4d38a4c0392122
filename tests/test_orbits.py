"""Radial solves on the orbit quotient of lattice and tree balls.

``lattice_ball`` and ``tree_ball`` with a scalar mu keep how to map each
vertex to its orbit under the symmetries that fix the anchor; ``solve``
runs the descent on the quotient when the problem is radial and started at
the anchor, lifts u_bar, and certifies on the full graph.
"""

import sys
import threading

import numpy as np
import pytest

import yamabe
import yamabe.solver
from conftest import count_calls
from test_graph import lattice_points
from yamabe import ProblemSpec, SolveOptions, WeightedGraph, graph_distance, solve
from yamabe.graph import _orbit_quotient, csr_rows, lattice_quotient, tree_quotient


def from_edges(g):
    """The same graph rebuilt through from_edges, which keeps no orbits."""
    row = csr_rows(g.indptr)
    once = g.indices >= row
    edges = np.column_stack((row[once], g.indices[once], g.weights[once]))
    return WeightedGraph.from_edges(g.n, edges, mu=g.mu)


def radial_spec(g, x0, p, alpha, k=2, theta=1.0):
    dist = graph_distance(g, x0).astype(np.float64)
    return ProblemSpec(
        p=p, alpha=alpha, delta=min(0.4, 0.9 / (p - 2.0)), theta=theta,
        h=1.0 + dist**k, g=np.ones(g.n),
    )


def descent_sizes(monkeypatch):
    """The vertex count of every graph solve hands to minimize_constrained."""
    sizes = []
    inner = yamabe.solver.minimize_constrained

    def recorded(g, spec, opts=None):
        sizes.append(g.n)
        return inner(g, spec, opts)

    monkeypatch.setattr(yamabe.solver, "minimize_constrained", recorded)
    return sizes


def reference_cells(d, radius):
    """Each lattice point's cell: its sorted |coordinates|, ranked lexicographically."""
    orbit = [tuple(sorted(map(abs, c))) for c in lattice_points(d, radius)]
    number = {key: i for i, key in enumerate(sorted(set(orbit)))}
    return np.array([number[key] for key in orbit])


@pytest.mark.parametrize(
    "d, radius", [(d, r) for d in (1, 2, 3, 4) for r in (0, 1, 2, 5)]
)
def test_lattice_cells_match_the_reference_numbering(d, radius):
    g, x0 = yamabe.lattice_ball(d, radius, weight=0.7, mu=1.5)
    cell, first, quotient = _orbit_quotient(g, x0)
    want = reference_cells(d, radius)
    np.testing.assert_array_equal(cell, want)
    # each cell's lowest vertex, and the builder's own quotient, bit for bit
    np.testing.assert_array_equal(first, [np.flatnonzero(want == c)[0] for c in range(want.max() + 1)])
    q, _, _ = lattice_quotient(d, radius, weight=0.7, mu=1.5)
    for name in ("indptr", "indices", "weights", "mu"):
        assert getattr(quotient, name).tobytes() == getattr(q, name).tobytes(), name
    assert not cell.flags.writeable and not first.flags.writeable


@pytest.mark.parametrize("branching, depth", [(2, 0), (2, 5), (3, 3)])
def test_tree_cells_are_levels(branching, depth):
    g, x0 = yamabe.tree_ball(branching, depth, mu=2.0)
    cell, first, quotient = _orbit_quotient(g, x0)
    level = np.repeat(np.arange(depth + 1), [branching**k for k in range(depth + 1)])
    np.testing.assert_array_equal(cell, level)
    np.testing.assert_array_equal(first, [np.flatnonzero(level == k)[0] for k in range(depth + 1)])
    q, _, _ = tree_quotient(branching, depth, mu=2.0)
    assert quotient.weights.tobytes() == q.weights.tobytes() and quotient.mu.tobytes() == q.mu.tobytes()


def test_orbits_are_built_on_first_ask_and_kept(monkeypatch):
    counts = count_calls(monkeypatch, lattice_quotient, tree_quotient)
    g, x0 = yamabe.lattice_ball(2, 6)
    t, root = yamabe.tree_ball(2, 4)
    # the generators build no quotient
    assert counts == {}
    orbits = _orbit_quotient(g, x0)
    assert _orbit_quotient(g, x0) is orbits
    assert _orbit_quotient(t, root) is _orbit_quotient(t, root)
    assert counts == {"lattice_quotient": 1, "tree_quotient": 1}
    # the orbits fix the anchor: around another vertex there are none
    assert _orbit_quotient(g, x0 + 1) is None


@pytest.mark.parametrize(
    "make",
    [
        lambda: yamabe.path_graph(9),
        lambda: yamabe.cycle_graph(9),
        lambda: yamabe.lattice_ball(2, 3, mu=np.arange(1.0, 26.0)),
        lambda: yamabe.tree_ball(2, 2, mu=np.ones(7)),
        lambda: (from_edges(yamabe.lattice_ball(2, 3)[0]), 12),
        lambda: yamabe.truncate_ball(*yamabe.lattice_ball(2, 5), 3)[:2],
    ],
    ids=["path", "cycle", "z2_per_vertex_mu", "tree_per_vertex_mu", "from_edges", "truncated"],
)
def test_other_graphs_keep_no_orbits(make):
    g, x0 = make()
    assert _orbit_quotient(g, x0) is None


# (graph, p, alpha, k): both branches on Z^1, Z^2, Z^3 and two trees, h = 1 + dist^k
# (k = 0 is the flat instance), and a scalar mu = 2.5, which scales the
# quotient's cell measures and so exercises the curvature's density floor
ORBIT_CASES = [
    (make, p, alpha, k)
    for make in ("z1", "z2", "z3", "tree2", "tree3", "z2_mu")
    for p, alpha in ((4.0, 3.0), (4.0, 4.0), (3.0, 2.5))
    for k in (0, 2)
]
GRAPHS = {
    "z1": lambda: yamabe.lattice_ball(1, 12),
    "z2": lambda: yamabe.lattice_ball(2, 8),
    "z3": lambda: yamabe.lattice_ball(3, 4),
    "tree2": lambda: yamabe.tree_ball(2, 5),
    "tree3": lambda: yamabe.tree_ball(3, 3),
    "z2_mu": lambda: yamabe.lattice_ball(2, 8, mu=2.5),
}


@pytest.mark.parametrize("make, p, alpha, k", ORBIT_CASES)
def test_quotient_solve_matches_the_full_graph(monkeypatch, make, p, alpha, k):
    g, x0 = GRAPHS[make]()
    spec = radial_spec(g, x0, p, alpha, k)
    sizes = descent_sizes(monkeypatch)
    on_orbits = solve(g, spec, SolveOptions(x0=x0))
    full = solve(from_edges(g), spec, SolveOptions(x0=x0))
    cell, first, quotient = _orbit_quotient(g, x0)
    assert sizes == [quotient.n, g.n] and quotient.n < g.n
    assert on_orbits.converged and full.converged
    assert on_orbits.positive and full.positive
    assert on_orbits.gamma == pytest.approx(full.gamma, rel=1e-14, abs=0.0)
    assert on_orbits.lam == pytest.approx(full.lam, rel=1e-14, abs=0.0)
    # the lift is constant on every cell
    np.testing.assert_array_equal(on_orbits.u_bar, on_orbits.u_bar[first][cell])
    # the descents agree up to rounding, so their iterates agree until the
    # residual reaches its rounding level, where an accept can go either way
    np.testing.assert_allclose(on_orbits.u_bar, full.u_bar, rtol=0.0, atol=1e-7 * full.u_bar.max())
    assert abs(on_orbits.iters - full.iters) <= 3
    # everything after the descent is taken on the full graph
    report = yamabe.residual_report(g, spec, on_orbits.u, eigen_factor=on_orbits.eigen_factor)
    assert report.residual.tobytes() == on_orbits.residual.tobytes()
    assert on_orbits.k_value == on_orbits.trace.k_value
    assert abs(yamabe.constraint_K(g, spec, on_orbits.u_bar) - 1.0) <= 1e-12


def test_quotient_iterations_stay_close_on_the_z2_grid():
    # the Z^2 R = 10 half of acceptance 12's grid (45 instances), against the
    # same graph without orbits: rounding moves a few end games by one or a
    # few iterations, nothing more
    g, x0 = yamabe.lattice_ball(2, 10)
    plain = from_edges(g)
    moved, total = 0, [0, 0]
    for p in (2.2, 2.5, 3.0, 4.0, 6.0):
        for alpha in sorted({a for a in (2.25, 2.5, 3.0, 4.0, 6.0, p) if 2.0 < a <= p}):
            for k in (0, 2, 4):
                spec = radial_spec(g, x0, p, alpha, k)
                a = solve(g, spec, SolveOptions(x0=x0))
                b = solve(plain, spec, SolveOptions(x0=x0))
                assert a.converged and a.positive and b.converged
                assert a.gamma == pytest.approx(b.gamma, rel=1e-14, abs=0.0)
                moved += a.iters != b.iters
                total[0] += a.iters
                total[1] += b.iters
    assert moved <= 3
    assert abs(total[0] - total[1]) <= 10


@pytest.mark.parametrize("radius", [8, 13])
def test_constant_coefficients_give_the_constant_on_both_paths(radius):
    # the exact minimizer is c = (theta g vol)^(-1/alpha); the quotient solve
    # reaches it as closely as the full one
    g, x0 = yamabe.lattice_ball(2, radius)
    spec = radial_spec(g, x0, 4.0, 3.0, k=0)
    c = (spec.theta * g.volume()) ** (-1.0 / spec.alpha)
    a = solve(g, spec, SolveOptions(x0=x0))
    b = solve(from_edges(g), spec, SolveOptions(x0=x0))
    np.testing.assert_allclose(a.u_bar, b.u_bar, rtol=0.0, atol=1e-15)
    assert abs(np.abs(a.u_bar - c).max() - np.abs(b.u_bar - c).max()) <= 1e-15


def one_vertex_off(spec, field):
    """spec with ``field`` one ulp higher at the last vertex."""
    values = {"h": spec.h.copy(), "g": spec.g.copy()}
    values[field][-1] = np.nextafter(values[field][-1], np.inf)
    return ProblemSpec(p=spec.p, alpha=spec.alpha, delta=spec.delta, **values)


@pytest.mark.parametrize("make", ["z2", "tree2"])
@pytest.mark.parametrize(
    "case",
    ["h_at_one_vertex", "g_at_one_vertex", "x0_not_the_anchor"],
)
def test_anything_not_radial_takes_the_full_graph(monkeypatch, make, case):
    g, x0 = GRAPHS[make]()
    spec, opts = radial_spec(g, x0, 4.0, 3.0), SolveOptions(x0=x0)
    if case in ("h_at_one_vertex", "g_at_one_vertex"):
        spec = one_vertex_off(spec, case[0])
    else:
        opts = SolveOptions(x0=x0 + 1)
    sizes = descent_sizes(monkeypatch)
    res = solve(g, spec, opts)
    assert sizes == [g.n]
    # and gives the bits of the same solve on the graph without orbits
    plain = solve(from_edges(g), spec, opts)
    assert res.u_bar.tobytes() == plain.u_bar.tobytes()
    assert (res.gamma, res.iters) == (plain.gamma, plain.iters)


def test_per_vertex_mu_takes_the_full_graph(monkeypatch):
    g, x0 = yamabe.lattice_ball(2, 6, mu=np.full(85, 2.5))
    sizes = descent_sizes(monkeypatch)
    res = solve(g, radial_spec(g, x0, 4.0, 3.0), SolveOptions(x0=x0))
    assert sizes == [g.n] and res.converged


def test_quotient_solve_returns_writable_arrays_of_the_full_graph():
    g, x0 = yamabe.tree_ball(2, 4)
    res = solve(g, radial_spec(g, x0, 4.0, 4.0), SolveOptions(x0=x0))
    for name in ("u_bar", "u", "residual"):
        arr = getattr(res, name)
        assert arr.shape == (g.n,) and arr.flags.writeable and arr.flags.owndata, name


def test_first_asks_racing_on_one_graph_agree():
    # threads that solve on a fresh graph at once race to build its orbits
    # (a short switch interval makes them interleave); each must get the
    # bits a lone solve gets
    g, x0 = yamabe.lattice_ball(2, 5)
    spec = radial_spec(g, x0, 4.0, 3.0)
    want = solve(g, spec, SolveOptions(x0=x0)).u.tobytes()
    got = []

    def worker(fresh):
        got.append(solve(fresh, spec, SolveOptions(x0=x0)).u.tobytes())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            fresh, _ = yamabe.lattice_ball(2, 5)
            threads = [threading.Thread(target=worker, args=(fresh,)) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert got == [want] * 40
