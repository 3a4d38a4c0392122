"""Graph container, generators, truncation, and serialization."""

import itertools
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_connected_graph
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
    load_graph,
    lq_norm,
    path_graph,
    save_graph,
    tree_ball,
    truncate_ball,
)
from yamabe.graph import _is_connected


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
    # ((1^2)*1 + (1^2)*... ) frozen: mu=(1,1), f=(1,-1) -> sqrt(2)
    g2 = WeightedGraph.from_edges(2, [(0, 1, 1.0)])
    assert lq_norm(g2, [1.0, -1.0], 2.0) == pytest.approx(np.sqrt(2.0), rel=1e-15)
    g3 = WeightedGraph.from_edges(2, [(0, 1, 1.0)], mu=[2.0, 2.0])
    # 2*1^3 + 2*3^3 = 56
    assert lq_norm(g3, [1.0, 3.0], 3.0) == pytest.approx(56.0 ** (1.0 / 3.0), rel=1e-15)
    with pytest.raises(ValueError):
        lq_norm(g2, [1.0, 1.0], 0.5)


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
    assert _is_connected(g.indptr, g.indices)


def test_disconnected_raw_graph_is_detected():
    # components {0, 1, 2} (a path) and {3, 4} (an edge), built unvalidated
    pairs = [(0, 1), (1, 2), (3, 4)]
    indptr, indices, weights = reference_csr(5, pairs, 1.0)
    g = WeightedGraph(indptr=indptr, indices=indices, weights=weights, mu=np.ones(5))
    assert not _is_connected(g.indptr, g.indices)
    np.testing.assert_array_equal(graph_distance(g, 1), [1, 0, 1, -1, -1])
    np.testing.assert_array_equal(graph_distance(g, 4), reference_distance(g, 4))
    spec = ProblemSpec(p=4.0, alpha=3.0, delta=0.4, h=np.ones(5), g=np.ones(5))
    # the cached answer fails every check, not only the first
    for _ in range(2):
        with pytest.raises(HypothesisError) as err:
            hypotheses_check(g, spec)
        assert err.value.name == "connected"


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
        sub, _, _ = truncate_ball(g, x0, radius)
        assert sub.n == np.count_nonzero(dist <= radius)
        assert _is_connected(sub.indptr, sub.indices)


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


def test_json_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    g = random_connected_graph(rng)
    data = graph_to_dict(g)
    g2 = graph_from_dict(data)
    np.testing.assert_array_equal(g.indptr, g2.indptr)
    np.testing.assert_array_equal(g.indices, g2.indices)
    np.testing.assert_allclose(g.weights, g2.weights, rtol=0, atol=0)
    np.testing.assert_allclose(g.mu, g2.mu, rtol=0, atol=0)
    path = tmp_path / "graph.json"
    save_graph(g, path)
    g3 = load_graph(path)
    assert g3.n == g.n and g3.n_edges == g.n_edges
