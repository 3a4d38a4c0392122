"""The CSR kernels against a per-row loop reference, and their call counts."""

import sys
import threading

import numpy as np
import pytest

import yamabe
from conftest import count_calls, random_connected_graph
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


def grad_power_with_temporaries(g, f, p):
    d = f[g.indices] - f[g.rows]
    return np.bincount(g.rows, weights=g.weights * np.abs(d) ** p, minlength=g.n) / (2.0 * g.mu)


def kernels_with_temporaries(g, f, p):
    """The three kernels as fresh whole-array expressions, one temporary per step."""
    d = f[g.indices] - f[g.rows]
    flow = g.weights * np.sign(d) * np.abs(d) ** (p - 1.0)
    contrib = g.weights * np.abs(d) ** p
    power = grad_power_with_temporaries(g, f, p)
    return (
        np.bincount(g.rows, weights=flow, minlength=g.n) / g.mu,
        power,
        (float(contrib[g.indices >= g.rows].sum()), float((g.mu * power).sum())),
    )


def run_kernels(g, f, p):
    args = (g.indptr, g.indices, g.weights, g.mu, f, p, g.rows)
    return tuple(kernel(*args) for kernel in KERNELS)


def same_bits(got, want):
    return all(a.tobytes() == b.tobytes() for a, b in zip(got[:2], want[:2])) and got[2] == want[2]


@pytest.mark.parametrize("p", [2.0, 2.5, 3.0, 4.0, 6.0])
def test_in_place_kernels_match_temporaries_bit_for_bit(p):
    # the kernels reuse per-thread slot arrays; the arithmetic must not change.
    # grad_power also runs at p - 2 (the curvature), down to exponent 0
    rng = np.random.default_rng(9)
    for _ in range(25):
        g = random_connected_graph(rng)
        f = rng.standard_normal(g.n) * 10.0 ** rng.uniform(-3, 3)
        f[rng.integers(0, g.n)] = f[0]  # some zero differences
        assert same_bits(run_kernels(g, f, p), kernels_with_temporaries(g, f, p))
        low = grad_power_kernel(g.indptr, g.indices, g.weights, g.mu, f, p - 2.0, g.rows)
        assert low.tobytes() == grad_power_with_temporaries(g, f, p - 2.0).tobytes()


def test_kernels_in_concurrent_threads():
    # each thread keeps its own slot arrays: threads alternating graphs of
    # different sizes (a short switch interval makes them interleave) must
    # each get the results of a lone call
    rng = np.random.default_rng(4)
    graphs = [random_connected_graph(rng, n_min=n, n_max=n) for n in (5, 15, 25, 35)]
    cases = [(g, rng.standard_normal(g.n), 2.0 + k) for k, g in enumerate(graphs)]
    want = [run_kernels(g, f, p) for g, f, p in cases]
    wrong = []

    def work(k):
        for i in range(200):
            j = (k + i) % len(cases)
            if not same_bits(run_kernels(*cases[j]), want[j]):
                wrong.append(j)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


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
    # the universe and one ball per radius; the competitor uses the first ball
    family = yamabe.GraphFamily("lattice_zd_ball", {"d": 1})
    problem = yamabe.ProblemFamily(p=4.0, alpha=3.0, delta=0.4, h="1 + dist^4", g=1.0)
    yamabe.exhaustion_study(family, problem, (4, 8))
    assert counts["csr_rows"] == 1 + 3
