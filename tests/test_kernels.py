"""The CSR kernels against a per-row loop reference."""

import numpy as np
import pytest

from conftest import random_connected_graph
from yamabe._kernels import edge_energy_kernel, grad_power_kernel, p_laplacian_kernel


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
    assert p_laplacian_kernel(indptr, indices, weights, mu, f, 3.0) == 0.0
    assert edge_energy_kernel(indptr, indices, weights, f, 3.0) == 0.0


@pytest.mark.parametrize("p", [2.0, 2.5, 3.0, 4.0])
def test_kernels_match_loop_reference(p):
    rng = np.random.default_rng(42)
    for _ in range(25):
        g = random_connected_graph(rng)
        csr = (g.indptr, g.indices, g.weights)
        f = rng.standard_normal(g.n)
        np.testing.assert_allclose(
            p_laplacian_kernel(*csr, g.mu, f, p), p_laplacian_loops(*csr, g.mu, f, p),
            rtol=1e-12, atol=1e-12,
        )
        np.testing.assert_allclose(
            grad_power_kernel(*csr, g.mu, f, p), grad_power_loops(*csr, g.mu, f, p),
            rtol=1e-12, atol=1e-14,
        )
        ref = edge_energy_loops(*csr, f, p)
        assert abs(edge_energy_kernel(*csr, f, p) - ref) <= 1e-12 * max(abs(ref), 1.0)


def test_flat_function_gives_exact_zeros():
    # zero differences hit |0|^{p-2}, which must not become 0**0 = 1
    g = random_connected_graph(np.random.default_rng(3))
    csr = (g.indptr, g.indices, g.weights)
    f = np.full(g.n, 1.75)
    for p in (2.0, 3.0):
        assert np.all(p_laplacian_kernel(*csr, g.mu, f, p) == 0.0)
        assert np.all(grad_power_kernel(*csr, g.mu, f, p) == 0.0)
        assert edge_energy_kernel(*csr, f, p) == 0.0
