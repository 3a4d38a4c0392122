"""Energy, constraint, their derivatives, and the probe inequality."""

from fractions import Fraction

import numpy as np
import pytest

from conftest import random_connected_graph, random_positive_spec_fields
from yamabe import (
    ProblemSpec,
    WeightedGraph,
    constraint_K,
    energy_J,
    h_norm,
    integrate,
    J_gradient,
    K_derivative_action,
    kprime_lipschitz_probe,
    nonlinearity_G,
    path_graph,
    solve,
    SolveOptions,
)


def two_vertex_spec(p=3.0, alpha=3.0, h=3.0, g_val=1.0, theta=1.0):
    g = WeightedGraph.from_edges(2, [(0, 1, 1.0)])
    spec = ProblemSpec(
        p=p,
        alpha=alpha,
        delta=0.5,
        theta=theta,
        h=np.full(2, h),
        g=np.full(2, g_val),
    )
    return g, spec


def exact_energy(g, spec, u):
    """J(u) in exact rational arithmetic on the float64 inputs."""
    p = int(spec.p)
    rows = np.repeat(np.arange(g.n), np.diff(g.indptr))
    edges = sum(Fraction(float(w)) * abs(Fraction(float(u[y])) - Fraction(float(u[x]))) ** p
                for x, y, w in zip(rows, g.indices, g.weights) if y > x)
    return edges + sum(Fraction(float(m)) * Fraction(float(h)) * abs(Fraction(float(v))) ** p
                       for m, h, v in zip(g.mu, spec.h, u))


@pytest.mark.parametrize("theta, g_val", [(1e300, 1.0), (1.0, 1e300)], ids=["theta", "g"])
def test_energy_J_keeps_an_h_term_past_the_underflow(theta, g_val):
    # u_bar is about 5.8e-101, so |u|^4 underflows to 0 before h mu = 1e300
    # multiplies it: J used to read 0, and solve raised ConsistencyError on
    # its sup bound min(h mu) sup u^p <= J
    g, x0 = path_graph(5)
    spec = ProblemSpec(p=4.0, alpha=3.0, delta=0.4, theta=theta, h=np.full(5, 1e300),
                       g=np.full(5, g_val))
    res = solve(g, spec, SolveOptions(x0=x0))
    for u in (res.u_bar, res.u_bar * np.linspace(1.0, 2.0, 5)):
        want = exact_energy(g, spec, u)
        assert abs(Fraction(energy_J(g, spec, u)) - want) <= Fraction(1, 10**12) * want
    assert res.gamma == pytest.approx(5.848035476e-101, rel=1e-9)


def test_energy_J_in_range_is_the_plain_sum():
    # the underflow-safe sum runs only where the plain one can lose J's last bit
    rng = np.random.default_rng(3)
    for _ in range(20):
        g = random_connected_graph(rng)
        h, g_val = random_positive_spec_fields(rng, g.n)
        spec = ProblemSpec(p=3.5, alpha=3.0, delta=0.4, h=h, g=g_val)
        u = rng.uniform(-2.0, 2.0, g.n)
        plain = float((g.mu * spec.h * np.abs(u) ** spec.p).sum())
        edges = energy_J(g, ProblemSpec(p=3.5, alpha=3.0, delta=0.4, h=np.zeros(g.n), g=g_val), u)
        assert energy_J(g, spec, u) == edges + plain


def test_energy_hand_value():
    # dirichlet 8 plus int h|u|^p = 3*(0+8) ... u=(0,2), h=3, p=3:
    # 8 + 3*8 = 32? no: int h|u|^p dmu = 3*0 + 3*8 = 24, J = 8 + 24 = 32
    g, spec = two_vertex_spec()
    assert energy_J(g, spec, [0.0, 2.0]) == pytest.approx(32.0, rel=1e-14)


def test_h_norm_hand_value():
    g, spec = two_vertex_spec()
    # (8 + 24)^{1/3}
    assert h_norm(g, spec, [0.0, 2.0]) == pytest.approx(32.0 ** (1 / 3), rel=1e-14)


def test_nonlinearity_values():
    _, spec = two_vertex_spec()
    # G(x, 2) = 2^3 = 8, G_s(x, 2) = 3 * 2^2 = 12 with g = theta = 1
    val, deriv = nonlinearity_G(spec, 0, 2.0)
    assert val == pytest.approx(8.0)
    assert deriv == pytest.approx(12.0)
    val, deriv = nonlinearity_G(spec, 1, -5.0)
    assert val == 0.0
    assert deriv == 0.0
    with pytest.raises(ValueError):
        nonlinearity_G(spec, 2, 1.0)


def test_constraint_hand_values():
    g, spec = two_vertex_spec()
    assert constraint_K(g, spec, [0.0, 2.0]) == pytest.approx(8.0, rel=1e-14)
    # negative part does not contribute
    assert constraint_K(g, spec, [-1.0, 2.0]) == pytest.approx(8.0, rel=1e-14)


def test_constraint_derivative_action():
    g, spec = two_vertex_spec()
    # K'(u)[v] = alpha theta int g u_+^{alpha-1} v dmu; u=(0,2), v=(1,1):
    # 3 * 1 * (0 + 4*1) = 12
    assert K_derivative_action(g, spec, [0.0, 2.0], [1.0, 1.0]) == pytest.approx(
        12.0, rel=1e-14
    )


def test_j_gradient_hand_value():
    g, spec = two_vertex_spec()
    w = J_gradient(g, spec, [0.0, 2.0])
    # w = -p lap_p u + p h |u|^{p-2} u; at vertex 1: -3*(-4) + 3*3*2*2 = 48
    # at vertex 0: -3*4 + 0 = -12
    np.testing.assert_allclose(w, [-12.0, 48.0], rtol=1e-14)


def test_j_gradient_hand_value_h1():
    g, spec = two_vertex_spec(h=1.0)
    w = J_gradient(g, spec, [0.0, 2.0])
    # vertex 1: -3*(-4) + 3*1*|2|*2 = 12 + 12 = 24
    np.testing.assert_allclose(w, [-12.0, 24.0], rtol=1e-14)


def fd_directional(fun, u, v, step):
    return (fun(u + step * v) - fun(u - step * v)) / (2.0 * step)


def test_j_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    for _ in range(60):
        graph = random_connected_graph(rng)
        h, gg = random_positive_spec_fields(rng, graph.n)
        p = float(rng.choice([2.0, 2.5, 3.0, 4.0]))
        spec = ProblemSpec(p=p, alpha=2.5, delta=0.1, theta=1.0, h=h, g=gg)
        u = rng.standard_normal(graph.n)
        v = rng.standard_normal(graph.n)
        step = 1e-5 * (1.0 + float(np.max(np.abs(u))))
        fd = fd_directional(lambda w: energy_J(graph, spec, w), u, v, step)
        exact = float(integrate(graph, J_gradient(graph, spec, u) * v))
        assert exact == pytest.approx(fd, rel=1e-5, abs=1e-7)


def test_k_derivative_matches_finite_differences():
    rng = np.random.default_rng(12)
    for _ in range(60):
        graph = random_connected_graph(rng)
        h, gg = random_positive_spec_fields(rng, graph.n)
        spec = ProblemSpec(p=4.0, alpha=3.0, delta=0.3, theta=1.5, h=h, g=gg)
        # keep u away from the u = 0 kink where u_+^alpha loses smoothness
        u = rng.uniform(0.5, 2.0, graph.n)
        v = rng.standard_normal(graph.n)
        step = 1e-5 * (1.0 + float(np.max(np.abs(u))))
        fd = fd_directional(lambda w: constraint_K(graph, spec, w), u, v, step)
        exact = K_derivative_action(graph, spec, u, v)
        assert exact == pytest.approx(fd, rel=1e-5, abs=1e-7)


def test_constraint_homogeneity():
    # K(c u) = c^alpha K(u) for c > 0
    rng = np.random.default_rng(13)
    graph = random_connected_graph(rng)
    h, gg = random_positive_spec_fields(rng, graph.n)
    spec = ProblemSpec(p=3.0, alpha=2.5, delta=0.5, theta=2.0, h=h, g=gg)
    u = rng.uniform(0.1, 1.0, graph.n)
    k1 = constraint_K(graph, spec, u)
    for c in (2.0, 0.3, 7.5):
        assert constraint_K(graph, spec, c * u) == pytest.approx(
            c ** 2.5 * k1, rel=1e-10
        )


def test_energy_homogeneity():
    # J(c u) = |c|^p J(u)
    rng = np.random.default_rng(14)
    graph = random_connected_graph(rng)
    h, gg = random_positive_spec_fields(rng, graph.n)
    spec = ProblemSpec(p=4.0, alpha=3.0, delta=0.3, theta=1.0, h=h, g=gg)
    u = rng.standard_normal(graph.n)
    j1 = energy_J(graph, spec, u)
    for c in (3.0, -2.0):
        assert energy_J(graph, spec, c * u) == pytest.approx(
            abs(c) ** 4.0 * j1, rel=1e-10
        )


def test_spec_restrict():
    h = np.array([1.0, 2.0, 3.0, 4.0])
    gg = np.array([0.5, 1.5, 2.5, 3.5])
    spec = ProblemSpec(p=3.0, alpha=2.5, delta=0.5, theta=1.0, h=h, g=gg)
    sub = spec.restrict(np.array([2, 0]))
    np.testing.assert_array_equal(sub.h, [3.0, 1.0])
    np.testing.assert_array_equal(sub.g, [2.5, 0.5])
    assert sub.p == spec.p and sub.alpha == spec.alpha


def test_probe_trivial_cases():
    g, spec = two_vertex_spec(p=4.0, alpha=3.0)
    u = np.array([1.0, 2.0])
    xi = np.array([0.5, -0.5])
    lhs, rhs = kprime_lipschitz_probe(g, spec, u, u, xi)
    assert lhs == 0.0
    assert lhs <= rhs
    lhs, rhs = kprime_lipschitz_probe(g, spec, u, np.array([1.0, 1.5]), np.zeros(2))
    assert lhs == 0.0
    assert rhs == 0.0


def test_probe_holds_on_random_draws():
    rng = np.random.default_rng(21)
    for _ in range(100):
        graph = random_connected_graph(rng)
        h, gg = random_positive_spec_fields(rng, graph.n)
        p = float(rng.choice([2.0, 3.0, 4.0]))
        spec = ProblemSpec(p=p, alpha=2.5, delta=0.2, theta=1.0, h=h, g=gg)
        u1 = rng.uniform(0.0, 1.0, graph.n)
        u2 = rng.uniform(0.0, 1.0, graph.n)
        xi = rng.standard_normal(graph.n)
        lhs, rhs = kprime_lipschitz_probe(graph, spec, u1, u2, xi)
        assert lhs <= rhs * (1.0 + 1e-9) + 1e-300


def test_probe_rejects_cap_violation():
    g, spec = two_vertex_spec(p=4.0, alpha=3.0)
    with pytest.raises(ValueError):
        kprime_lipschitz_probe(
            g, spec, np.array([1.0, 2.0]), np.array([0.5, 0.5]), np.ones(2), cap=1.0
        )
