"""p-Laplacian, gradient norm, energy identity, and integration by parts."""

import numpy as np
import pytest

from conftest import random_connected_graph
from yamabe import (
    WeightedGraph,
    dirichlet_energy,
    ibp_identity_check,
    integrate,
    p_gradient_norm,
    p_laplacian,
    path_graph,
)


def two_vertex():
    return WeightedGraph.from_edges(2, [(0, 1, 1.0)])


def test_p_laplacian_hand_values():
    g = two_vertex()
    np.testing.assert_allclose(p_laplacian(g, 3.0, [0.0, 2.0]), [4.0, -4.0])
    np.testing.assert_allclose(p_laplacian(g, 2.0, [0.0, 2.0]), [2.0, -2.0])
    np.testing.assert_allclose(p_laplacian(g, 3.0, [0.0, 0.0]), [0.0, 0.0])


def test_p_laplacian_rejects_bad_p():
    g = two_vertex()
    for p in (1.5, 0.0, -2.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            p_laplacian(g, p, [0.0, 1.0])


def test_p2_matches_dense_linear_laplacian():
    # (L f)(x) = (1/mu(x)) sum_y w_xy (f(y) - f(x)), assembled densely
    rng = np.random.default_rng(123)
    for _ in range(30):
        g = random_connected_graph(rng)
        W = np.zeros((g.n, g.n))
        for x in range(g.n):
            nbrs, wts = g.neighbors(x)
            W[x, nbrs] = wts
        f = rng.standard_normal(g.n)
        dense = (W @ f - W.sum(axis=1) * f) / g.mu
        np.testing.assert_allclose(p_laplacian(g, 2.0, f), dense, atol=1e-12)


def test_p_laplacian_odd_homogeneity():
    # lap_p(c f) = c |c|^{p-2} lap_p f, including negative c
    rng = np.random.default_rng(7)
    g = random_connected_graph(rng)
    f = rng.standard_normal(g.n)
    for p in (2.0, 2.5, 3.0, 4.0):
        base = p_laplacian(g, p, f)
        for c in (2.0, -1.5):
            np.testing.assert_allclose(
                p_laplacian(g, p, c * f),
                c * abs(c) ** (p - 2.0) * base,
                rtol=1e-10,
                atol=1e-12,
            )


def test_gradient_norm_hand_value():
    g = two_vertex()
    # (1/(2*1)) * 1 * |2|^3 = 4, fourth... cube root for p=3
    np.testing.assert_allclose(
        p_gradient_norm(g, 3.0, [0.0, 2.0]), [4.0 ** (1 / 3)] * 2
    )


def test_dirichlet_energy_hand_values():
    g = two_vertex()
    assert dirichlet_energy(g, 3.0, [0.0, 2.0]) == pytest.approx(8.0, rel=1e-15)
    g3, _ = path_graph(3)
    assert dirichlet_energy(g3, 2.0, [0.0, 1.0, 3.0]) == pytest.approx(5.0, rel=1e-15)
    assert dirichlet_energy(g, 2.0, [1.0, 1.0]) == 0.0


def test_energy_identity_vertex_vs_edge():
    # sum_x mu |grad_p f|^p equals the unordered-edge sum for all p; no call
    # checks it, since every graph has one weight per edge, so this test does
    rng = np.random.default_rng(99)
    for _ in range(50):
        g = random_connected_graph(rng)
        f = rng.standard_normal(g.n)
        for p in (2.0, 2.5, 3.0, 4.0):
            vertex_sum = float(integrate(g, p_gradient_norm(g, p, f) ** p))
            edge_sum = dirichlet_energy(g, p, f)
            assert abs(vertex_sum - edge_sum) <= 1e-12 * max(
                abs(vertex_sum), abs(edge_sum), 1.0
            )


def test_ibp_identity():
    # int (-f) lap_p f dmu = int |grad_p f|^p dmu
    rng = np.random.default_rng(4)
    for _ in range(50):
        g = random_connected_graph(rng)
        f = rng.standard_normal(g.n)
        for p in (2.0, 3.0, 4.0):
            lhs, rhs = ibp_identity_check(g, p, f)
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


def test_ibp_hand_value():
    g = two_vertex()
    lhs, rhs = ibp_identity_check(g, 3.0, [0.0, 2.0])
    assert lhs == pytest.approx(8.0, rel=1e-14)
    assert rhs == pytest.approx(8.0, rel=1e-14)


def test_self_loop_contributes_nothing():
    g = WeightedGraph.from_edges(2, [(0, 1, 1.0), (0, 0, 5.0)])
    np.testing.assert_allclose(p_laplacian(g, 3.0, [0.0, 2.0]), [4.0, -4.0])
    assert dirichlet_energy(g, 3.0, [0.0, 2.0]) == pytest.approx(8.0)
