"""The CSR kernels against a per-row loop reference, and their call counts."""

import sys
import threading

import numpy as np
import pytest

import yamabe
from conftest import count_calls, random_connected_graph
from yamabe import _kernels
from yamabe._kernels import _gather, edge_energy_kernel, grad_power_kernel, p_laplacian_kernel
from yamabe.graph import csr_pairing, csr_rows, lattice_quotient, tree_quotient


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
    pairing = csr_pairing(indptr, indices, weights)
    assert p_laplacian_kernel(indptr, indices, weights, mu, f, 3.0, pairing) == 0.0
    assert edge_energy_kernel(indptr, indices, weights, mu, f, 3.0, pairing) == 0.0


@pytest.mark.parametrize("p", [2.0, 2.5, 3.0, 4.0])
def test_kernels_match_loop_reference(p):
    rng = np.random.default_rng(42)
    for _ in range(25):
        g = random_connected_graph(rng)
        csr = (g.indptr, g.indices, g.weights)
        f = rng.standard_normal(g.n)
        np.testing.assert_allclose(
            p_laplacian_kernel(*csr, g.mu, f, p, g.pairing), p_laplacian_loops(*csr, g.mu, f, p),
            rtol=1e-12, atol=1e-12,
        )
        np.testing.assert_allclose(
            grad_power_kernel(*csr, g.mu, f, p, g.pairing), grad_power_loops(*csr, g.mu, f, p),
            rtol=1e-12, atol=1e-14,
        )
        ref = edge_energy_loops(*csr, f, p)
        edge_sum = edge_energy_kernel(*csr, g.mu, f, p, g.pairing)
        assert type(edge_sum) is float
        assert abs(edge_sum - ref) <= 1e-12 * max(abs(ref), 1.0)


def test_flat_function_gives_exact_zeros():
    # zero differences hit |0|^{p-2}, which must not become 0**0 = 1
    g = random_connected_graph(np.random.default_rng(3))
    csr = (g.indptr, g.indices, g.weights)
    f = np.full(g.n, 1.75)
    for p in (2.0, 3.0):
        assert np.all(p_laplacian_kernel(*csr, g.mu, f, p, g.pairing) == 0.0)
        assert np.all(grad_power_kernel(*csr, g.mu, f, p, g.pairing) == 0.0)
        assert edge_energy_kernel(*csr, g.mu, f, p, g.pairing) == 0.0


def edge_sum_two_pass(indptr, indices, weights, f, p):
    # the edge sum as a separate pass over the once-counted slots computed it
    row = csr_rows(indptr)
    once = indices >= row
    d = f[indices[once]] - f[row[once]]
    return float(np.sum(weights[once] * np.abs(d) ** p))


@pytest.mark.parametrize("p", [2.0, 2.5, 3.0, 4.0])
def test_fused_energy_kernel_returns_both_sides(p):
    # both sides of the energy identity from the kernels: edge_energy's one
    # edge sum, and the vertex sum of mu * grad_power
    rng = np.random.default_rng(7)
    for _ in range(25):
        g = random_connected_graph(rng)
        csr = (g.indptr, g.indices, g.weights)
        f = rng.standard_normal(g.n)
        edge_sum = edge_energy_kernel(*csr, g.mu, f, p, g.pairing)
        np.testing.assert_allclose(edge_sum, edge_energy_loops(*csr, f, p), rtol=1e-12)
        vertex_sum = float(np.sum(g.mu * grad_power_kernel(*csr, g.mu, f, p, g.pairing)))
        vertex_ref = float(np.sum(g.mu * grad_power_loops(*csr, g.mu, f, p)))
        np.testing.assert_allclose(vertex_sum, vertex_ref, rtol=1e-12)
        np.testing.assert_allclose(vertex_sum, edge_sum, rtol=1e-12)
        # one power per edge leaves the edge sum bit for bit that of a pass over the slots
        assert edge_sum == edge_sum_two_pass(*csr, f, p)


def grad_power_with_temporaries(g, f, p):
    rows = csr_rows(g.indptr)
    d = f[g.indices] - f[rows]
    # a loop's term is zero, at exponent 0 too, where its |0|^0 = 1 would count its weight
    w = np.where(g.indices == rows, 0.0, g.weights)
    return np.bincount(rows, weights=w * np.abs(d) ** p, minlength=g.n) / (2.0 * g.mu)


def kernels_with_temporaries(g, f, p):
    """The three kernels as fresh whole-array expressions over every CSR slot,
    one temporary per step."""
    rows = csr_rows(g.indptr)
    d = f[g.indices] - f[rows]
    flow = g.weights * np.sign(d) * np.abs(d) ** (p - 1.0)
    contrib = g.weights * np.abs(d) ** p
    return (
        np.bincount(rows, weights=flow, minlength=g.n) / g.mu,
        grad_power_with_temporaries(g, f, p),
        float(contrib[g.indices >= rows].sum()),
    )


def frozen(f):
    """A read-only copy of ``f`` that owns its data: one the kernels may reuse."""
    out = np.array(f, dtype=np.float64)
    out.flags.writeable = False
    return out


def kernel_call(kernel, g, f, p):
    return kernel(g.indptr, g.indices, g.weights, g.mu, f, p, g.pairing)


def run_kernels(g, f, p):
    return tuple(kernel_call(kernel, g, f, p) for kernel in KERNELS)


def same_output(got, want):
    return got == want if isinstance(want, float) else got.tobytes() == want.tobytes()


def same_bits(got, want):
    return all(same_output(a, b) for a, b in zip(got, want))


def every_builder():
    """A graph from every builder, then random ones."""
    yield yamabe.path_graph(9)[0]
    yield yamabe.cycle_graph(7)[0]
    yield yamabe.tree_ball(3, 3)[0]
    for d in (1, 2, 3):
        yield yamabe.lattice_ball(d, 4)[0]
    yield lattice_quotient(2, 12)[0]
    yield lattice_quotient(3, 6)[0]
    yield tree_quotient(2, 9)[0]
    g, _ = yamabe.lattice_ball(2, 8)
    yield yamabe.truncate_ball(g, 40, 5)[0]  # a ball around a vertex that is not the origin
    # a self-loop (weight 0.0 in the pairing, so it adds nothing even to the
    # curvature at p = 2, where its slot's |0|^0 = 1), unequal weights and a
    # per-vertex mu
    edges = [(0, 1, 1.5), (1, 1, 2.0), (1, 2, 0.5), (2, 3, 3.0), (3, 4, 1.0), (0, 4, 0.25)]
    yield yamabe.WeightedGraph.from_edges(5, edges, mu=[1.0, 2.0, 0.5, 1.5, 3.0])
    rng = np.random.default_rng(9)
    for _ in range(25):
        yield random_connected_graph(rng)


@pytest.mark.parametrize("p", [2.0, 2.5, 3.0, 4.0, 6.0])
def test_in_place_kernels_match_temporaries_bit_for_bit(p):
    # the kernels work once per unordered edge in per-thread scratch; the
    # arithmetic must be that of every CSR slot on its own, bit for bit.
    # grad_power also runs at p - 2 (the curvature), down to exponent 0
    rng = np.random.default_rng(9)
    for g in every_builder():
        f = rng.standard_normal(g.n) * 10.0 ** rng.uniform(-3, 3)
        f[rng.integers(0, g.n)] = f[0]  # some zero differences
        want = kernels_with_temporaries(g, f, p)
        low_want = grad_power_with_temporaries(g, f, p - 2.0).tobytes()
        # a writable array is gathered by every call, a frozen one once for all
        for values in (f, frozen(f)):
            assert same_bits(run_kernels(g, values, p), want)
            assert kernel_call(grad_power_kernel, g, values, p - 2.0).tobytes() == low_want


@pytest.mark.parametrize("p", [2.0, 2.5, 3.0, 4.0, 6.0])
def test_self_loops_do_nothing(p):
    # a loop at every vertex of a weighted path, then none: the kernels at
    # exponents p and p - 1, and grad_power at p - 2 (the curvature; exponent
    # 0 at p = 2, where a loop's slot has |0|^0 = 1), must not see the loops.
    # Fewer than 8 edges, so numpy adds the edge sum in order and a zero term
    # changes no bit
    edges = [(0, 1, 1.5), (1, 2, 0.5), (2, 3, 3.0)]
    mu = [1.0, 2.0, 0.5, 1.5]
    plain = yamabe.WeightedGraph.from_edges(4, edges, mu=mu)
    looped = yamabe.WeightedGraph.from_edges(4, edges + [(x, x, 2.0 + x) for x in range(4)], mu=mu)
    f = np.random.default_rng(11).standard_normal(4)
    f[3] = f[2]  # a zero difference
    for q in (p, p - 1.0):
        assert same_bits(run_kernels(looped, f, q), run_kernels(plain, f, q))
    low = [grad_power_kernel(g.indptr, g.indices, g.weights, g.mu, f, p - 2.0, g.pairing)
           for g in (looped, plain)]
    assert low[0].tobytes() == low[1].tobytes()


def test_kernels_in_concurrent_threads():
    # each thread keeps its own slot arrays and its own record of what they
    # were gathered from: threads alternating graphs of different sizes, and
    # two frozen arrays on one graph, from kernel to kernel (a short switch
    # interval makes them interleave), must each get the per-slot reference
    rng = np.random.default_rng(4)
    graphs = [random_connected_graph(rng, n_min=n, n_max=n) for n in (5, 15, 25, 35)]
    cases = [(g, rng.standard_normal(g.n), 2.0 + k) for k, g in enumerate(graphs)]
    want = [run_kernels(g, f, p) for g, f, p in cases]
    pair = [(frozen(f), kernels_with_temporaries(g, f, p)) for g, f, p in cases for f in
            (f, rng.standard_normal(g.n))]
    wrong = []

    def work(k):
        for i in range(200):
            j = (k + i) % len(cases)
            if not same_bits(run_kernels(*cases[j]), want[j]):
                wrong.append(j)
            # the kernels in turn, each frozen array for two calls in a row
            g, _, p = cases[k]
            for s, kernel in enumerate(KERNELS):
                f, ref = pair[2 * k + (3 * i + s) // 2 % 2]
                if not same_output(kernel_call(kernel, g, f, p), ref[s]):
                    wrong.append((k, i, s))

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


def test_scratch_grows_and_is_never_reallocated():
    # a quotient solve switches between its quotient and the full graph, with
    # a frozen iterate on each: one buffer, grown once, serves both, and each
    # switch gathers afresh
    quotient, (ball, _) = lattice_quotient(2, 6)[0], yamabe.lattice_ball(2, 6)
    rng = np.random.default_rng(14)
    cases = [(g, frozen(rng.standard_normal(g.n))) for g in (quotient, ball)]
    want = [kernels_with_temporaries(g, f, 4.0) for g, f in cases]
    buffers, wrong = [], []

    def work():
        for i in range(6):
            g, f = cases[i % 2]
            if not same_bits(run_kernels(g, f, 4.0), want[i % 2]):
                wrong.append(i)
            buffers.append(_kernels._scratch.buffer)

    thread = threading.Thread(target=work)  # a thread of its own starts with no scratch
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive() and wrong == []
    assert buffers[0].shape == (4 * quotient.pairing[1].shape[0],)
    assert buffers[1].shape == (4 * ball.pairing[1].shape[0],)
    assert all(b is buffers[1] for b in buffers[1:])


def test_writable_array_written_between_calls_gets_fresh_results():
    rng = np.random.default_rng(12)
    g = random_connected_graph(rng, n_min=10)
    f = rng.standard_normal(g.n)
    for s, kernel in enumerate(KERNELS):
        run_kernels(g, f, 4.0)
        f[s] = -2.0 * f[s]
        assert same_output(kernel_call(kernel, g, f, 4.0), kernels_with_temporaries(g, f, 4.0)[s])


def test_read_only_view_of_writable_array_is_never_reused(monkeypatch):
    rng = np.random.default_rng(13)
    g = random_connected_graph(rng, n_min=10)
    base = rng.standard_normal(g.n)
    view = base[:]
    view.flags.writeable = False
    counts = count_calls(monkeypatch, _gather)
    for s, kernel in enumerate(KERNELS):
        run_kernels(g, view, 4.0)
        base[s] = -2.0 * base[s]  # the view sees it, though it cannot write it
        assert same_output(kernel_call(kernel, g, view, 4.0), kernels_with_temporaries(g, base, 4.0)[s])
    assert counts["_gather"] == 4 * len(KERNELS)
    # a frozen owner is gathered once for the three kernels
    run_kernels(g, frozen(base), 4.0)
    assert counts["_gather"] == 4 * len(KERNELS) + 1


def test_frozen_array_on_two_graphs_with_equal_edge_counts():
    # a from_edges relabelling has the same m but other bins: each graph
    # must get its own results from the one frozen array, in any order
    rng = np.random.default_rng(14)
    a = random_connected_graph(rng, n_min=12)
    rows = csr_rows(a.indptr)
    once = a.indices > rows
    perm = rng.permutation(a.n)
    edges = zip(perm[rows[once]].tolist(), perm[a.indices[once]].tolist(), a.weights[once].tolist())
    mu = np.empty(a.n)
    mu[perm] = a.mu
    b = yamabe.WeightedGraph.from_edges(a.n, list(edges), mu=mu)
    assert a.pairing[1].shape == b.pairing[1].shape
    assert not np.array_equal(a.pairing[0], b.pairing[0])
    f = frozen(rng.standard_normal(a.n))
    want = {id(g): kernels_with_temporaries(g, f, 3.0) for g in (a, b)}
    for s, kernel in enumerate(KERNELS):
        for g in (a, b, b, a):
            assert same_output(kernel_call(kernel, g, f, 3.0), want[id(g)][s])


def test_solve_gathers_each_iterate_once(monkeypatch):
    # energy, gradient and curvature at an iterate share its one gather: one
    # for the start, one per line-search trial and one for residual_report on
    # u, which solve freezes so that its two kernels share it; the multiplier
    # takes the descent's J and K and runs no kernel. The kernel calls are
    # those of one gather per call (43 on this instance)
    g, x0 = yamabe.path_graph(20)
    dist = yamabe.graph_distance(g, x0).astype(np.float64)
    spec = yamabe.ProblemSpec(p=4.0, alpha=3.0, delta=0.4, h=1.0 + dist**2, g=np.ones(g.n))
    counts = count_calls(monkeypatch, *KERNELS, _gather)
    res = yamabe.solve(g, spec, yamabe.SolveOptions(x0=x0))
    gathers = counts.pop("_gather")
    assert counts == {"edge_energy_kernel": 14, "p_laplacian_kernel": 15, "grad_power_kernel": 14}
    assert gathers <= res.trace.trials + 2 < sum(counts.values())
    # the iterates and u are frozen, what solve returns is not: copies that own their data
    assert all(arr.flags.writeable and arr.flags.owndata for arr in (res.u_bar, res.u, res.residual))


def test_energy_J_is_one_kernel_pass(monkeypatch):
    g, x0 = yamabe.lattice_ball(2, 6)
    spec = yamabe.ProblemSpec(p=4.0, alpha=3.0, delta=0.4, h=np.ones(g.n), g=np.ones(g.n))
    u = np.random.default_rng(5).uniform(0.1, 1.0, g.n)
    counts = count_calls(monkeypatch, *KERNELS, csr_rows, csr_pairing)
    yamabe.energy_J(g, spec, u)
    assert counts == {"edge_energy_kernel": 1}


def test_pairing_derived_once_per_graph(monkeypatch):
    counts = count_calls(monkeypatch, csr_pairing)
    g, x0 = yamabe.path_graph(20)
    assert counts["csr_pairing"] == 1
    spec = yamabe.ProblemSpec(p=4.0, alpha=3.0, delta=0.4, h=np.ones(g.n), g=np.ones(g.n))
    yamabe.solve(g, spec, yamabe.SolveOptions(x0=x0))
    assert counts["csr_pairing"] == 1
    # the universe and one ball per radius; the competitor uses the first ball
    family = yamabe.GraphFamily("lattice_zd_ball", {"d": 1})
    problem = yamabe.ProblemFamily(p=4.0, alpha=3.0, delta=0.4, h="1 + dist^4", g=1.0)
    yamabe.exhaustion_study(family, problem, (4, 8))
    assert counts["csr_pairing"] == 1 + 3
