"""The CSR kernels against a per-row loop reference, and their call counts."""

import sys
from collections import Counter

import numpy as np
import pytest

import yamabe
from conftest import random_connected_graph
from yamabe._kernels import edge_energy_kernel, grad_power_kernel, p_laplacian_kernel
from yamabe.graph import csr_rows


def p_laplacian_loops(indptr, indices, weights, mu, f, p):
    out = np.zeros(mu.shape[0])
    for x in range(mu.shape[0]):
        acc = 0.0
        for k in range(indptr[x], indptr[x + 1]):
            d = f[indices[k]] - f[x]
            if d > 0.0:
                acc += weights[k] * d ** (p - 1.0)
            elif d < 0.0:
                acc -= weights[k] * (-d) ** (p - 1.0)
        out[x] = acc / mu[x]
    return out


def grad_power_loops(indptr, indices, weights, mu, f, p):
    out = np.zeros(mu.shape[0])
    for x in range(mu.shape[0]):
        acc = 0.0
        for k in range(indptr[x], indptr[x + 1]):
            d = abs(f[indices[k]] - f[x])
            if d > 0.0:
                acc += weights[k] * d**p
        out[x] = acc / (2.0 * mu[x])
    return out


def edge_energy_loops(indptr, indices, weights, f, p):
    acc = 0.0
    for x in range(indptr.shape[0] - 1):
        for k in range(indptr[x], indptr[x + 1]):
            y = indices[k]
            if y >= x:
                d = abs(f[y] - f[x])
                if d > 0.0:
                    acc += weights[k] * d**p
    return acc


def test_single_vertex():
    indptr = np.array([0, 0], dtype=np.int64)
    indices = np.array([], dtype=np.int64)
    weights = np.array([], dtype=np.float64)
    mu = np.array([1.0])
    f = np.array([3.0])
    rows = csr_rows(indptr)
    assert p_laplacian_kernel(indptr, indices, weights, mu, f, 3.0, rows) == 0.0
    assert edge_energy_kernel(indptr, indices, weights, mu, f, 3.0, rows) == (0.0, 0.0)


@pytest.mark.parametrize("p", [2.0, 2.5, 3.0, 4.0])
def test_kernels_match_loop_reference(p):
    rng = np.random.default_rng(42)
    for _ in range(25):
        g = random_connected_graph(rng)
        csr = (g.indptr, g.indices, g.weights)
        f = rng.standard_normal(g.n)
        np.testing.assert_allclose(
            p_laplacian_kernel(*csr, g.mu, f, p, g.rows), p_laplacian_loops(*csr, g.mu, f, p),
            rtol=1e-12, atol=1e-12,
        )
        np.testing.assert_allclose(
            grad_power_kernel(*csr, g.mu, f, p, g.rows), grad_power_loops(*csr, g.mu, f, p),
            rtol=1e-12, atol=1e-14,
        )
        ref = edge_energy_loops(*csr, f, p)
        edge_sum, _ = edge_energy_kernel(*csr, g.mu, f, p, g.rows)
        assert abs(edge_sum - ref) <= 1e-12 * max(abs(ref), 1.0)


def test_flat_function_gives_exact_zeros():
    # zero differences hit |0|^{p-2}, which must not become 0**0 = 1
    g = random_connected_graph(np.random.default_rng(3))
    csr = (g.indptr, g.indices, g.weights)
    f = np.full(g.n, 1.75)
    for p in (2.0, 3.0):
        assert np.all(p_laplacian_kernel(*csr, g.mu, f, p, g.rows) == 0.0)
        assert np.all(grad_power_kernel(*csr, g.mu, f, p, g.rows) == 0.0)
        assert edge_energy_kernel(*csr, g.mu, f, p, g.rows) == (0.0, 0.0)


def edge_sum_two_pass(indptr, indices, weights, f, p):
    # the edge sum as a separate pass over the once-counted slots computed it
    row = csr_rows(indptr)
    once = indices >= row
    d = f[indices[once]] - f[row[once]]
    return float(np.sum(weights[once] * np.abs(d) ** p))


@pytest.mark.parametrize("p", [2.0, 2.5, 3.0, 4.0])
def test_fused_energy_kernel_returns_both_sides(p):
    rng = np.random.default_rng(7)
    for _ in range(25):
        g = random_connected_graph(rng)
        csr = (g.indptr, g.indices, g.weights)
        f = rng.standard_normal(g.n)
        edge_sum, vertex_sum = edge_energy_kernel(*csr, g.mu, f, p, g.rows)
        np.testing.assert_allclose(edge_sum, edge_energy_loops(*csr, f, p), rtol=1e-12)
        vertex_ref = float(np.sum(g.mu * grad_power_loops(*csr, g.mu, f, p)))
        np.testing.assert_allclose(vertex_sum, vertex_ref, rtol=1e-12)
        # one power array for both sums leaves the edge sum bit for bit unchanged
        assert edge_sum == edge_sum_two_pass(*csr, f, p)


def count_calls(monkeypatch, *functions):
    """Count calls of each function at every place a yamabe module binds it."""
    counts = Counter()
    for fn in functions:
        def counted(*args, _fn=fn, **kwargs):
            counts[_fn.__name__] += 1
            return _fn(*args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if name == "yamabe" or name.startswith("yamabe."):
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        monkeypatch.setattr(mod, key, counted)
    return counts


KERNELS = (p_laplacian_kernel, grad_power_kernel, edge_energy_kernel)


def test_energy_J_is_one_kernel_pass(monkeypatch):
    g, x0 = yamabe.lattice_ball(2, 6)
    spec = yamabe.ProblemSpec(p=4.0, alpha=3.0, delta=0.4, h=np.ones(g.n), g=np.ones(g.n))
    u = np.random.default_rng(5).uniform(0.1, 1.0, g.n)
    counts = count_calls(monkeypatch, *KERNELS, csr_rows)
    yamabe.energy_J(g, spec, u)
    assert counts == {"edge_energy_kernel": 1}


def test_rows_derived_once_per_graph(monkeypatch):
    counts = count_calls(monkeypatch, csr_rows)
    g, x0 = yamabe.path_graph(20)
    assert counts["csr_rows"] == 1
    spec = yamabe.ProblemSpec(p=4.0, alpha=3.0, delta=0.4, h=np.ones(g.n), g=np.ones(g.n))
    yamabe.solve(g, spec, yamabe.SolveOptions(x0=x0))
    assert counts["csr_rows"] == 1
    # the universe, the competitor's ball and one ball per radius
    family = yamabe.GraphFamily("lattice_zd_ball", {"d": 1})
    problem = yamabe.ProblemFamily(p=4.0, alpha=3.0, delta=0.4, h="1 + dist^4", g=1.0)
    yamabe.exhaustion_study(family, problem, (4, 8))
    assert counts["csr_rows"] == 1 + 4
