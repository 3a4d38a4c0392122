"""Graph container, generators, truncation, and serialization."""

import itertools
import sys
import threading
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import count_calls, random_connected_graph
from yamabe import (
    HypothesisError,
    ProblemSpec,
    WeightedGraph,
    cycle_graph,
    eccentricity,
    generate,
    graph_distance,
    graph_from_dict,
    graph_to_dict,
    hypotheses_check,
    integrate,
    lattice_ball,
    path_graph,
    tree_ball,
    truncate_ball,
)
from yamabe.graph import _bfs


def reference_distance(g, x0):
    """Queue-based BFS, one vertex at a time: the reference for graph_distance."""
    dist = np.full(g.n, -1, dtype=np.int64)
    dist[x0] = 0
    queue = deque([x0])
    while queue:
        x = queue.popleft()
        for y in g.indices[g.indptr[x] : g.indptr[x + 1]]:
            if dist[y] < 0:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist


def reference_csr(n, pairs, weight):
    """CSR arrays of the unordered pairs, each row's neighbors ascending."""
    adj = [[] for _ in range(n)]
    for x, y in pairs:
        adj[x].append(y)
        if x != y:
            adj[y].append(x)
    indptr = np.cumsum([0] + [len(a) for a in adj]).astype(np.int64)
    indices = np.array([y for a in adj for y in sorted(a)], dtype=np.int64)
    return indptr, indices, np.full(indices.size, weight, dtype=np.float64)


def assert_same_csr(g, ref):
    for got, want in zip((g.indptr, g.indices, g.weights), ref):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_from_edges_basic():
    g = WeightedGraph.from_edges(2, [(0, 1, 2.0)], mu=[1.0, 3.0])
    assert g.n == 2 and g.n_edges == 1
    assert g.volume() == 4.0
    nbrs, wts = g.neighbors(0)
    np.testing.assert_array_equal(nbrs, [1])
    np.testing.assert_array_equal(wts, [2.0])


def test_from_edges_rejects_bad_input():
    with pytest.raises(ValueError, match=r"^edge \(0,1\) has nonpositive weight 0.0$"):
        WeightedGraph.from_edges(2, [(0, 1, 0.0)])
    with pytest.raises(ValueError, match=r"^edge \(0,1\) has nonpositive weight -1.0$"):
        WeightedGraph.from_edges(2, [(0, 1, -1.0)])
    with pytest.raises(ValueError, match=r"^edge \(0,1\) has nonpositive weight nan$"):
        WeightedGraph.from_edges(2, [(0, 1, float("nan"))])
    with pytest.raises(ValueError, match=r"^edge \(0,2\) out of range for n=2$"):
        WeightedGraph.from_edges(2, [(0, 2, 1.0)])
    with pytest.raises(ValueError, match=r"^edge \(-1,1\) out of range for n=2$"):
        WeightedGraph.from_edges(2, [(-1, 1, 1.0)])
    with pytest.raises(ValueError):
        WeightedGraph.from_edges(2, [(0, 0, 1.0)])
    with pytest.raises(ValueError, match=r"^duplicate edge \(0, 1\)$"):
        WeightedGraph.from_edges(2, [(0, 1, 1.0), (1, 0, 1.0)])
    # the first offending edge is named, whatever is wrong with later ones
    with pytest.raises(ValueError, match=r"^duplicate edge \(1, 2\)$"):
        WeightedGraph.from_edges(3, [(0, 1, 1.0), (2, 1, 1.0), (1, 2, 1.0), (0, 9, 1.0)])
    with pytest.raises(ValueError, match=r"^edge \(1,2\) has nonpositive weight 0.0$"):
        WeightedGraph.from_edges(3, [(0, 1, 1.0), (1, 2, 0.0), (2, 1, 1.0), (0, 9, 1.0)])
    with pytest.raises(ValueError):
        WeightedGraph.from_edges(2, [(0, 1)])
    with pytest.raises(ValueError):
        WeightedGraph.from_edges(2, [(0, 1, 1.0)], mu=[1.0, 0.0])
    # disconnected
    with pytest.raises(ValueError):
        WeightedGraph.from_edges(3, [(0, 1, 1.0)])
    with pytest.raises(ValueError):
        WeightedGraph.from_edges(0, [])


def test_from_edges_rejects_non_integer_ids():
    with pytest.raises(ValueError, match=r"^edge \(0,1.5\) has a non-integer vertex id$"):
        WeightedGraph.from_edges(3, [(0, 1.5, 1.0), (1, 2, 1.0)])
    with pytest.raises(ValueError, match=r"^edge \(0,True\) has a non-integer vertex id$"):
        WeightedGraph.from_edges(3, [(0, True, 1.0), (1, 2, 1.0)])
    with pytest.raises(ValueError, match="non-integer vertex id"):
        WeightedGraph.from_edges(2, [(float("nan"), 1, 1.0)])
    # a graph file is outside input: JSON true/false must not become ids 1/0
    with pytest.raises(ValueError, match="non-integer vertex id"):
        graph_from_dict({"n": 2, "edges": [[False, True, 1.0]]})
    # integral floats and numpy integers still name vertices
    g = WeightedGraph.from_edges(3, [(0.0, 1.0, 1.0), (np.int64(1), np.int32(2), 2)])
    np.testing.assert_array_equal(g.indices, [1, 0, 2, 1])


@pytest.mark.parametrize(
    "build",
    [
        lambda: WeightedGraph.from_edges(2, [(0, 1, 1.0)], mu={}),
        lambda: WeightedGraph.from_edges(2, [(0, 1, {})]),
        lambda: path_graph(3, weight={}),
        lambda: graph_from_dict({"n": 3, "edges": 5}),
        lambda: graph_from_dict({"n": 3, "edges": None}),
        lambda: graph_from_dict({"n": 3, "edges": [[0, 1]]}),
        lambda: graph_from_dict({"n": 3, "edges": [5]}),
    ],
)
def test_malformed_graph_input_is_a_value_error(build):
    # JSON configs reach these constructors; a wrong type is invalid input
    with pytest.raises(ValueError):
        build()


def test_arrays_are_frozen():
    g = WeightedGraph.from_edges(2, [(0, 1, 1.0)])
    with pytest.raises(ValueError):
        g.mu[0] = 5.0
    with pytest.raises(ValueError):
        g.weights[0] = 5.0


def test_integrate_and_norms():
    g = WeightedGraph.from_edges(2, [(0, 1, 1.0)], mu=[1.0, 3.0])
    assert integrate(g, [2.0, -1.0]) == -1.0
    assert integrate(g, np.ones(2)) == 4.0


def test_vertex_function_validation():
    from yamabe import as_vertex_function

    g = WeightedGraph.from_edges(2, [(0, 1, 1.0)])
    with pytest.raises(ValueError):
        as_vertex_function(g, [1.0])
    with pytest.raises(ValueError):
        as_vertex_function(g, [1.0, np.nan])
    out = as_vertex_function(g, [1, 2])
    assert out.dtype == np.float64


def test_graph_distance_cycle():
    g, x0 = cycle_graph(4)
    np.testing.assert_array_equal(graph_distance(g, x0), [0, 1, 2, 1])
    assert eccentricity(g, x0) == 2


@st.composite
def connected_graphs(draw):
    """Random connected graph on shuffled labels, and a start vertex.

    Path-like draws (one vertex per BFS level from an end) are the slowest
    case per vertex for a level-synchronous search.
    """
    n = draw(st.integers(1, 40))
    label = draw(st.permutations(range(n)))
    path_like = draw(st.booleans())
    pairs = set()
    for v in range(1, n):
        u = v - 1 if path_like else draw(st.integers(0, v - 1))
        pairs.add((min(label[u], label[v]), max(label[u], label[v])))
    if not path_like:
        extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n))
        pairs |= {(min(a, b), max(a, b)) for a, b in extra}
    g = WeightedGraph.from_edges(n, [(x, y, 1.0) for x, y in sorted(pairs)])
    x0 = label[0] if path_like else draw(st.integers(0, n - 1))
    return g, x0


@settings(max_examples=200, deadline=None)
@given(connected_graphs())
def test_graph_distance_matches_queue_bfs(case):
    g, x0 = case
    dist = graph_distance(g, x0)
    assert dist.dtype == np.int64
    np.testing.assert_array_equal(dist, reference_distance(g, x0))
    # a raw copy of the arrays derives connectivity afresh
    raw = WeightedGraph(indptr=g.indptr, indices=g.indices, weights=g.weights, mu=g.mu)
    assert raw.connected


def disconnected_raw_graph():
    """Components {0, 1, 2} (a path) and {3, 4} (an edge), built unvalidated."""
    indptr, indices, weights = reference_csr(5, [(0, 1), (1, 2), (3, 4)], 1.0)
    return WeightedGraph(indptr=indptr, indices=indices, weights=weights, mu=np.ones(5))


def test_disconnected_raw_graph_is_detected():
    g = disconnected_raw_graph()
    assert not g.connected
    np.testing.assert_array_equal(graph_distance(g, 1), [1, 0, 1, -1, -1])
    np.testing.assert_array_equal(graph_distance(g, 4), reference_distance(g, 4))
    spec = ProblemSpec(p=4.0, alpha=3.0, delta=0.4, h=np.ones(5), g=np.ones(5))
    # the cached answer fails every check, not only the first
    for _ in range(2):
        with pytest.raises(HypothesisError) as err:
            hypotheses_check(g, spec)
        assert err.value.name == "connected"


@pytest.mark.parametrize(
    "make, k",
    [
        (lambda: path_graph(9)[0], 6),
        (lambda: cycle_graph(9)[0], 4),
        (lambda: tree_ball(3, 3)[0], 17),
        (lambda: lattice_ball(2, 4)[0], 3),
        (disconnected_raw_graph, 4),
    ],
    ids=["path", "cycle", "tree", "z2", "disconnected_raw"],
)
def test_distance_slot_follows_the_source(make, k):
    # the slot keeps one source at a time; switching back and forth must
    # never hand out the other source's distances
    g = make()
    for x0 in (0, k, 0, k):
        np.testing.assert_array_equal(graph_distance(g, x0), reference_distance(g, x0))


def test_distance_slot_under_concurrent_sources():
    # threads asking one small graph for different sources race on the slot
    # (a short switch interval makes them interleave); each must still get
    # its own source's distances. A slot written as two separate attributes
    # (source, then array) fails this.
    g, _ = path_graph(5)
    sources = [0, 1, 3, 4]
    want = {x0: np.abs(np.arange(5) - x0) for x0 in sources}
    wrong = []

    def worker(x0, other):
        for _ in range(1000):
            for source in (x0, other, x0):
                if not np.array_equal(graph_distance(g, source), want[source]):
                    wrong.append(source)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=worker, args=(x0, sources[k - 1]))
            for k, x0 in enumerate(sources)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def test_graph_distance_is_read_only():
    g, x0 = lattice_ball(2, 3)
    dist = graph_distance(g, x0)
    with pytest.raises(ValueError):
        dist[0] = 5
    np.testing.assert_array_equal(graph_distance(g, x0), reference_distance(g, x0))
    # the slot holds x0, but a float source is still not a vertex id
    with pytest.raises(TypeError):
        graph_distance(g, float(x0))


@pytest.mark.parametrize(
    "make",
    [
        lambda: path_graph(12),
        lambda: cycle_graph(11),
        lambda: tree_ball(2, 5),
        lambda: lattice_ball(2, 6),
        lambda: lattice_ball(3, 3),
    ],
    ids=["path", "cycle", "tree", "z2", "z3"],
)
def test_ball_inherits_distances_from_its_anchor(make, monkeypatch):
    g, x0 = make()
    ecc = eccentricity(g, x0)
    counts = count_calls(monkeypatch, _bfs)
    for radius in (0, 1, ecc // 2, ecc, ecc + 2):
        ball, anchor, _ = truncate_ball(g, x0, radius)
        np.testing.assert_array_equal(graph_distance(ball, anchor), reference_distance(ball, anchor))
    # the universe was searched before, and every ball inherits its distances
    assert counts["_bfs"] == 0


@pytest.mark.parametrize("d, radius", [(d, r) for d in (1, 2, 3) for r in (0, 1, 2, 5)])
def test_lattice_ball_matches_reference(d, radius):
    points = [
        c for c in itertools.product(range(-radius, radius + 1), repeat=d)
        if sum(map(abs, c)) <= radius
    ]
    index = {c: i for i, c in enumerate(sorted(points))}
    pairs = []
    for c, i in index.items():
        for axis in range(d):
            nb = c[:axis] + (c[axis] + 1,) + c[axis + 1 :]
            if nb in index:
                pairs.append((i, index[nb]))
    g, x0 = lattice_ball(d, radius, weight=0.3)
    assert_same_csr(g, reference_csr(len(index), pairs, 0.3))
    assert x0 == index[(0,) * d]


def test_path_cycle_tree_match_reference():
    g, _ = path_graph(7, weight=2.5)
    assert_same_csr(g, reference_csr(7, [(i, i + 1) for i in range(6)], 2.5))
    g, _ = cycle_graph(6)
    assert_same_csr(g, reference_csr(6, [(i, (i + 1) % 6) for i in range(6)], 1.0))
    # tree numbered level by level, children in order of their parents
    pairs, level, next_id = [], [0], 1
    for _ in range(3):
        nxt = []
        for parent in level:
            for _ in range(3):
                pairs.append((parent, next_id))
                nxt.append(next_id)
                next_id += 1
        level = nxt
    g, x0 = tree_ball(3, 3)
    assert x0 == 0
    assert_same_csr(g, reference_csr(next_id, pairs, 1.0))


def test_generators_shapes():
    g, x0 = path_graph(5)
    assert g.n == 5 and g.n_edges == 4 and x0 == 0
    g, x0 = lattice_ball(1, 2)
    assert g.n == 5 and g.n_edges == 4
    assert graph_distance(g, x0).max() == 2
    g, x0 = lattice_ball(2, 1)
    assert g.n == 5 and g.n_edges == 4
    g, x0 = tree_ball(2, 2)
    assert g.n == 7 and g.n_edges == 6
    with pytest.raises(ValueError):
        cycle_graph(2)
    with pytest.raises(ValueError):
        path_graph(0)
    with pytest.raises(ValueError):
        tree_ball(1, 2)


def test_generate_dispatch():
    g, x0 = generate("path", n=4)
    assert g.n == 4
    with pytest.raises(ValueError):
        generate("hypercube", n=4)


@settings(max_examples=100, deadline=None)
@given(connected_graphs())
def test_truncation_is_connected_at_every_radius(case):
    # truncate_ball skips the connectivity check: a hop ball is connected
    # because each vertex's shortest path to x0 stays inside the ball
    g, x0 = case
    dist = graph_distance(g, x0)
    for radius in range(int(dist.max()) + 1):
        sub, anchor, _ = truncate_ball(g, x0, radius)
        assert sub.n == np.count_nonzero(dist <= radius)
        assert (reference_distance(sub, anchor) >= 0).all()


def test_truncate_ball_drops_crossing_edges():
    g, x0 = path_graph(6)
    ball, anchor, new_to_old = truncate_ball(g, 0, 2)
    assert ball.n == 3
    assert ball.n_edges == 2
    np.testing.assert_array_equal(new_to_old, [0, 1, 2])
    assert anchor == 0
    # measures carried over unchanged
    np.testing.assert_array_equal(ball.mu, g.mu[:3])


def test_truncate_ball_whole_graph():
    g, x0 = cycle_graph(5)
    ball, _, _ = truncate_ball(g, 0, 10)
    assert ball.n == g.n and ball.n_edges == g.n_edges


def test_truncate_ball_validation():
    g, _ = path_graph(3)
    with pytest.raises(ValueError):
        truncate_ball(g, 0, -1)
    with pytest.raises(ValueError):
        truncate_ball(g, 7, 1)


def test_truncations_nest():
    rng = np.random.default_rng(11)
    for _ in range(20):
        g = random_connected_graph(rng)
        r1 = int(rng.integers(0, 3))
        _, _, inner_ids = truncate_ball(g, 0, r1)
        _, _, outer_ids = truncate_ball(g, 0, r1 + 2)
        inner = set(inner_ids.tolist())
        outer = set(outer_ids.tolist())
        assert inner <= outer


def test_json_roundtrip():
    rng = np.random.default_rng(5)
    g = random_connected_graph(rng)
    data = graph_to_dict(g)
    g2 = graph_from_dict(data)
    np.testing.assert_array_equal(g.indptr, g2.indptr)
    np.testing.assert_array_equal(g.indices, g2.indices)
    np.testing.assert_allclose(g.weights, g2.weights, rtol=0, atol=0)
    np.testing.assert_allclose(g.mu, g2.mu, rtol=0, atol=0)
