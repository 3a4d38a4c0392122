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
    constraint_K,
    cycle_graph,
    eccentricity,
    energy_J,
    generate,
    graph_distance,
    graph_from_dict,
    graph_to_dict,
    hypotheses_check,
    integrate,
    lattice_ball,
    p_laplacian,
    path_graph,
    tree_ball,
    truncate_ball,
)
from yamabe.graph import _assemble, _bfs, csr_pairing, csr_rows, lattice_quotient, tree_quotient


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
    # numpy would parse numeric strings as numbers
    with pytest.raises(ValueError, match=r"^edges must be numeric: got a string$"):
        WeightedGraph.from_edges(2, [("0", "1", "1.0")])
    with pytest.raises(ValueError, match=r"^edges must be numeric: got a string$"):
        WeightedGraph.from_edges(2, [(0, 1, b"1.0")])
    with pytest.raises(ValueError, match=r"^mu must be numeric: got a string$"):
        WeightedGraph.from_edges(2, [(0, 1, 1.0)], mu="2")


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
        lambda: graph_from_dict({"n": "2", "edges": [[0, 1, 1.0]]}),
        lambda: graph_from_dict({"n": 2.5, "edges": [[0, 1, 1.0]]}),
        lambda: graph_from_dict({"n": True, "edges": []}),
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


def test_caller_mu_array_stays_the_callers():
    # the graph freezes its own copy; the caller's array stays writable and
    # writing to it does not reach the graph
    for build in (
        lambda m: path_graph(3, mu=m)[0],
        lambda m: WeightedGraph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)], mu=m),
    ):
        m = np.ones(3)
        g = build(m)
        m[0] = 2.0
        np.testing.assert_array_equal(g.mu, [1.0, 1.0, 1.0])
        assert not g.mu.flags.writeable


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


def raw_graph(indptr, indices, weights):
    n = len(indptr) - 1
    return WeightedGraph(indptr=np.array(indptr), indices=np.array(indices),
                         weights=np.array(weights, dtype=np.float64), mu=np.ones(n))


@pytest.mark.parametrize("csr, message", [
    # path 0-1-2 whose row 2 misses (2, 1), or whose row 1 misses (1, 2)
    (([0, 1, 3, 3], [1, 0, 2], [1.0] * 3), r"CSR slot 2 \(1, 2\) has no mirror slot \(2, 1\)"),
    (([0, 1, 2, 3], [1, 0, 1], [1.0] * 3), r"CSR slot 2 \(2, 1\) has no mirror slot \(1, 2\)"),
    # columns that descend in row 1, and repeated slots, which do not ascend strictly
    (([0, 1, 3, 4, 4], [1, 3, 0, 1], [1.0] * 4),
     r"CSR slot 2 \(1, 0\): the columns of row 1 do not strictly ascend"),
    (([0, 2, 4], [1, 1, 0, 0], [1.0] * 4),
     r"CSR slot 1 \(0, 1\): the columns of row 0 do not strictly ascend"),
    (([0, 2, 3], [0, 0, 0], [1.0] * 3),
     r"CSR slot 1 \(0, 0\): the columns of row 0 do not strictly ascend"),
    # path 0-1-2 whose slot (2, 1) weighs more than its mirror (1, 2): by 1.0, or by one
    # ulp, which a relative test of the energy identity at 1e-12 would let through
    (([0, 1, 3, 4], [1, 0, 2, 1], [1.0, 1.0, 1.0, 2.0]),
     r"^CSR slot 3 \(2, 1\) weighs 2.0 but its mirror slot 2 \(1, 2\) weighs 1.0$"),
    (([0, 1, 3, 4], [1, 0, 2, 1], [1.0, 1.0, 1.0, np.nextafter(1.0, 2.0)]),
     r"^CSR slot 3 \(2, 1\) weighs 1.0000000000000002 but its mirror slot 2 \(1, 2\) weighs 1.0$"),
])
def test_raw_csr_without_its_mirrors_is_rejected(csr, message):
    with pytest.raises(ValueError, match=message):
        raw_graph(*csr)


def test_pairing_matches_every_slot_to_its_mirror():
    # loops at 1 and 2 among the edges (0, 1) and (1, 2)
    g = raw_graph([0, 1, 4, 6], [1, 0, 1, 2, 1, 2], [1.0, 1.0, 3.0, 2.0, 2.0, 5.0])
    bins, w = g.pairing
    assert g.n_edges == 4 and not bins.flags.writeable and not w.flags.writeable
    # edges (0, 1), (1, 1), (1, 2), (2, 2) in that order: their hi, then their lo
    np.testing.assert_array_equal(bins, [1, 1, 2, 2, 0, 1, 1, 2])
    # one weight per edge, 0.0 for a loop
    assert w.shape == (4,) and w.dtype == np.float64
    np.testing.assert_array_equal(w, [1.0, 0.0, 2.0, 0.0])


def test_disconnected_raw_graph_is_detected():
    g = disconnected_raw_graph()
    assert not g.connected
    np.testing.assert_array_equal(graph_distance(g, 1), [1, 0, 1, -1, -1])
    np.testing.assert_array_equal(graph_distance(g, 4), reference_distance(g, 4))
    spec = ProblemSpec(p=4.0, alpha=3.0, delta=0.4, h=np.ones(5), g=np.ones(5))
    # every check fails, not only the first
    for _ in range(2):
        with pytest.raises(HypothesisError) as err:
            hypotheses_check(g, spec)
        assert err.value.name == "connected"


def test_connected_reads_the_distance_slot(monkeypatch):
    # a built graph answers from its anchor's distances, with no search
    counts = count_calls(monkeypatch, _bfs)
    g, _ = lattice_ball(2, 3)
    assert counts["_bfs"] == 0  # the generator states its distances
    graph_distance(g, 5)
    assert g.connected and g.connected and g._distance[0] == 12
    assert counts["_bfs"] == 1  # the query from 5
    # a raw graph keeps nothing: it searches from vertex 0 on every ask
    raw = WeightedGraph(indptr=g.indptr, indices=g.indices, weights=g.weights, mu=g.mu)
    graph_distance(raw, 5)
    assert raw.connected and raw.connected and raw._distance is None
    assert counts["_bfs"] == 4
    # and reports False however it was asked before
    bad = disconnected_raw_graph()
    for k in (4, 1, 3):
        graph_distance(bad, k)
        assert not bad.connected and bad._distance is None
    assert counts["_bfs"] == 10


@pytest.mark.parametrize(
    "make, k",
    [
        (lambda: path_graph(9)[0], 6),
        (lambda: cycle_graph(9)[0], 4),
        (lambda: tree_ball(3, 3)[0], 17),
        (lambda: lattice_ball(2, 4)[0], 3),
        (disconnected_raw_graph, 4),
        (lambda: WeightedGraph.from_edges(5, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.0), (3, 4, 0.5)]), 3),
        (lambda: lattice_quotient(2, 4)[0], 7),
        (lambda: truncate_ball(*lattice_ball(2, 5), 3)[0], 9),
        # a ball around another vertex than its parent's anchor
        (lambda: truncate_ball(lattice_ball(2, 5)[0], 7, 3)[0], 4),
    ],
    ids=["path", "cycle", "tree", "z2", "disconnected_raw", "from_edges", "quotient", "ball",
         "off_anchor_ball"],
)
def test_distance_slot_follows_the_source(make, k):
    # the graph keeps its anchor's distances; a query from another source is
    # searched, never handed the anchor's, and replaces nothing
    g = make()
    kept = g._distance
    for x0 in (0, k, 0, k):
        np.testing.assert_array_equal(graph_distance(g, x0), reference_distance(g, x0))
        assert g._distance is kept
    if kept is not None:
        anchor, dist = kept
        assert graph_distance(g, anchor) is dist
        np.testing.assert_array_equal(dist, reference_distance(g, anchor))


def test_distance_slot_under_concurrent_sources():
    # threads asking one small graph for different sources, its anchor among
    # them, interleave (a short switch interval makes them); each must get
    # its own source's distances.
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
    # x0 is the anchor, but a fraction or a boolean is still not a vertex id;
    # an integral float is one, as everywhere else a vertex id is read
    for bad in (x0 + 0.5, True, "12"):
        with pytest.raises(ValueError, match=r"^x0 must be an integer, got "):
            graph_distance(g, bad)
    assert graph_distance(g, float(x0)) is graph_distance(g, x0)


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


def assemble(indptr, indices, dist, anchor=0):
    """``_assemble`` on fresh copies of a CSR (unit weights and measure) and a labelling."""
    indptr, indices = np.asarray(indptr), np.array(indices, dtype=np.int64)
    return _assemble(np.diff(indptr), indices, np.ones(indices.size), np.ones(indptr.size - 1),
                     anchor, np.array(dist, dtype=np.int64))


@pytest.mark.parametrize(
    "make",
    [lambda: path_graph(6), lambda: cycle_graph(6), lambda: cycle_graph(7),
     lambda: lattice_ball(2, 3), lambda: tree_ball(3, 2), lambda: lattice_quotient(3, 4)[:2]],
    ids=["path", "cycle_even", "cycle_odd", "z2", "tree", "z3_quotient"],
)
def test_certificate_rejects_a_vertex_off_by_one(make):
    g, x0 = make()
    dist = reference_distance(g, x0)
    assert assemble(g.indptr, g.indices, dist, x0)._distance[1].tolist() == dist.tolist()
    for x in range(g.n):
        for step in (-1, 1):
            off = dist.copy()
            off[x] += step
            with pytest.raises(ValueError, match="^graph must be connected$"):
                assemble(g.indptr, g.indices, off, x0)
    # shifted as a whole, it passes every rule but the anchor's 0
    for step in (-1, 1, 5):
        with pytest.raises(ValueError, match="^graph must be connected$"):
            assemble(g.indptr, g.indices, dist + step, x0)


def test_certificate_rejects_a_second_zero():
    # the distance from the nearer of two sources passes every edge rule;
    # only the second source lacks a closer neighbour
    for g, x0 in (path_graph(9), cycle_graph(10), lattice_ball(2, 4)):
        for other in (1, g.n // 2, g.n - 1):
            if other == x0:
                continue
            dist = np.minimum(reference_distance(g, x0), reference_distance(g, other))
            with pytest.raises(ValueError, match="^graph must be connected$"):
                assemble(g.indptr, g.indices, dist, x0)


def test_certificate_accepts_only_the_hop_distance():
    # every labelling of five vertices by -1..5 with the anchor at 0: on a
    # connected graph (a self-loop included) only the hop distance passes,
    # and on a disconnected raw CSR none does, however its second component
    # is labelled
    linked = WeightedGraph.from_edges(5, [(0, 1, 1.0), (1, 2, 2.0), (2, 2, 1.0), (1, 3, 1.0), (3, 4, 0.5)])
    broken = disconnected_raw_graph()
    want = reference_distance(linked, 0).tolist()
    passed = []
    for rest in itertools.product(range(-1, 6), repeat=4):
        dist = (0, *rest)
        for g in (linked, broken):
            try:
                kept = assemble(g.indptr, g.indices, dist)._distance[1].tolist()
            except ValueError as exc:
                assert str(exc) == "graph must be connected"
                assert g is broken or list(dist) != want
            else:
                passed.append((g is linked, kept))
    assert passed == [(True, want)]


@pytest.mark.parametrize(
    "make",
    [
        lambda: lattice_ball(2, 5),
        lambda: lattice_ball(3, 3),
        lambda: tree_ball(2, 4),
        lambda: path_graph(9),
        lambda: cycle_graph(9),
        lambda: cycle_graph(10),
        lambda: lattice_quotient(2, 6)[:2],
        lambda: (WeightedGraph.from_edges(6, [(0, 1, 1.0), (1, 2, 2.5), (2, 2, 0.5), (2, 3, 1.0),
                                              (3, 4, 0.75), (4, 5, 3.0), (0, 5, 1.5)]), 0),
    ],
    ids=["z2", "z3", "tree", "path", "cycle_odd", "cycle_even", "z2_quotient", "from_edges_loop"],
)
def test_ball_inherits_the_pairing_csr_pairing_derives(make, monkeypatch):
    # radius 0, inside the graph, at the eccentricity and beyond it, from the
    # anchor and from two other vertices: bit for bit, and derived by no one
    g, anchor = make()
    for x0 in (anchor, g.n // 2, g.n - 1):
        ecc = eccentricity(g, x0)
        for radius in (0, 1, ecc // 2, ecc, ecc + 2):
            counts = count_calls(monkeypatch, csr_pairing)
            ball, _, _ = truncate_ball(g, x0, radius)
            assert counts["csr_pairing"] == 0
            monkeypatch.undo()
            for got, want in zip(ball.pairing, csr_pairing(ball.indptr, ball.indices, ball.weights)):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
                assert not got.flags.writeable


def lattice_points(d, radius):
    """The points of the l1 ball, sorted: lattice_ball's vertex order."""
    return sorted(
        c for c in itertools.product(range(-radius, radius + 1), repeat=d)
        if sum(map(abs, c)) <= radius
    )


def lattice_reference(d, radius):
    """Vertex count, nearest-neighbour pairs and origin id of the l1 ball, points sorted."""
    index = {c: i for i, c in enumerate(lattice_points(d, radius))}
    pairs = []
    for c, i in index.items():
        for axis in range(d):
            nb = c[:axis] + (c[axis] + 1,) + c[axis + 1 :]
            if nb in index:
                pairs.append((i, index[nb]))
    return len(index), pairs, index[(0,) * d]


@pytest.mark.parametrize("d, radius", [(d, r) for d in (1, 2, 3) for r in (0, 1, 2, 5)])
def test_lattice_ball_matches_reference(d, radius):
    n, pairs, origin = lattice_reference(d, radius)
    g, x0 = lattice_ball(d, radius, weight=0.3)
    assert_same_csr(g, reference_csr(n, pairs, 0.3))
    assert x0 == origin


@st.composite
def generator_cases(draw):
    """A generator call, and its vertex count, edge pairs and anchor listed without graph.py."""
    family = draw(st.sampled_from(["path", "cycle", "tree", "lattice"]))
    if family == "path":
        n = draw(st.integers(1, 40))
        return path_graph, (n,), n, [(x, x + 1) for x in range(n - 1)], 0
    if family == "cycle":
        n = draw(st.integers(3, 40))
        return cycle_graph, (n,), n, [(x, (x + 1) % n) for x in range(n)], 0
    if family == "tree":
        branching, depth = draw(st.integers(2, 4)), draw(st.integers(0, 5))
        n = sum(branching**k for k in range(depth + 1))
        return tree_ball, (branching, depth), n, [((c - 1) // branching, c) for c in range(1, n)], 0
    d = draw(st.integers(1, 4))
    radius = draw(st.integers(0, {1: 12, 2: 6, 3: 4, 4: 3}[d]))
    return (lattice_ball, (d, radius), *lattice_reference(d, radius))


@settings(max_examples=150, deadline=None)
@given(generator_cases(), st.data())
def test_generators_match_from_edges(case, data):
    # the generators write CSR arrays directly; from_edges, given the same
    # edges in any order and orientation, must produce the same bytes
    make, args, n, pairs, anchor = case
    weight = data.draw(st.floats(0.1, 10.0))
    per_vertex = st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n)
    mu = data.draw(st.one_of(st.floats(0.1, 10.0), per_vertex))
    g, x0 = make(*args, weight=weight, mu=mu)

    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    edges = [(y, x, weight) if rng.random() < 0.5 else (x, y, weight) for x, y in pairs]
    ref = WeightedGraph.from_edges(n, [edges[k] for k in rng.permutation(len(edges))], mu=mu)
    assert x0 == anchor
    for name in ("indptr", "indices", "weights", "mu"):
        got, want = getattr(g, name), getattr(ref, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    # every slot (x, y) has its mirror (y, x), with the same weight
    slots = {(int(x), int(y)): w for x, y, w in zip(csr_rows(g.indptr), g.indices, g.weights)}
    assert all(slots.get((y, x)) == w for (x, y), w in slots.items())


@st.composite
def quotient_cases(draw):
    """A quotient builder, its generator, their args and each vertex's cell,
    listed without graph.py."""
    if draw(st.booleans()):
        branching, depth = draw(st.integers(2, 4)), draw(st.integers(0, 6))
        level = np.repeat(np.arange(depth + 1), [branching**k for k in range(depth + 1)])
        return tree_quotient, tree_ball, (branching, depth), level
    d, radius = draw(st.integers(1, 4)), draw(st.integers(0, 6))
    # a signed permutation's orbit is its sorted |coordinates|; cells in lexicographic order
    orbit = [tuple(sorted(map(abs, c))) for c in lattice_points(d, radius)]
    number = {key: i for i, key in enumerate(sorted(set(orbit)))}
    return lattice_quotient, lattice_ball, (d, radius), np.array([number[key] for key in orbit])


def relative_gap(a, b):
    return abs(a - b) / abs(b)


@settings(max_examples=60, deadline=None)
@given(quotient_cases(), st.data())
def test_quotients_are_exact(case, data):
    # the quotient is the generator graph summed over cells: for cell-constant
    # data and functions it gives the same measure, distances, J, K and p-Laplacian
    quotient, generator, args, cell = case
    weight, mu = data.draw(st.floats(0.1, 10.0)), data.draw(st.floats(0.1, 10.0))
    q, anchor, cell_size = quotient(*args, weight=weight, mu=mu)
    g, x0 = generator(*args, weight=weight, mu=mu)
    assert anchor == cell[x0] == 0 and q.n == cell.max() + 1
    np.testing.assert_array_equal(cell_size, np.bincount(cell))
    assert cell_size.sum() == g.n
    assert relative_gap(q.volume(), g.volume()) <= 1e-12
    np.testing.assert_array_equal(graph_distance(q, anchor)[cell], graph_distance(g, x0))
    slots = {(int(x), int(y)): w for x, y, w in zip(csr_rows(q.indptr), q.indices, q.weights)}
    assert all(slots.get((y, x)) == w for (x, y), w in slots.items())

    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    p = float(rng.uniform(2.0, 6.0))
    h, g_coef, f = rng.uniform(0.5, 2.0, (3, q.n))
    on_q = ProblemSpec(p=p, alpha=2.0 + (p - 2.0) * rng.random(), delta=0.1, h=h, g=g_coef)
    on_g = ProblemSpec(p=on_q.p, alpha=on_q.alpha, delta=0.1, h=h[cell], g=g_coef[cell])
    assert relative_gap(energy_J(q, on_q, f), energy_J(g, on_g, f[cell])) <= 1e-12
    assert relative_gap(constraint_K(q, on_q, f), constraint_K(g, on_g, f[cell])) <= 1e-12
    lap = p_laplacian(g, p, f[cell])
    np.testing.assert_allclose(
        p_laplacian(q, p, f)[cell], lap, rtol=1e-12, atol=1e-12 * np.abs(lap).max()
    )


# every builder at a sweep of sizes: the edge cases (one vertex, radius and
# depth 0) and both parities of the cycle
STATED = (
    [(f"path{n}", lambda n=n: path_graph(n)) for n in (2, 7)]
    + [(f"cycle{n}", lambda n=n: cycle_graph(n)) for n in (3, 4, 7, 10)]
    + [(f"z{d}_r{r}", lambda d=d, r=r: lattice_ball(d, r)) for d, k in ((1, 6), (2, 5), (3, 4), (4, 3))
       for r in range(k + 1)]
    + [(f"tree{b}_d{k}", lambda b=b, k=k: tree_ball(b, k)) for b, top in ((2, 5), (3, 3), (4, 3))
       for k in range(top + 1)]
    + [(f"z{d}_quotient_r{r}", lambda d=d, r=r: lattice_quotient(d, r)[:2])
       for d, k in ((1, 5), (2, 8), (3, 6), (4, 5)) for r in range(k + 1)]
    + [(f"tree{b}_quotient_d{k}", lambda b=b, k=k: tree_quotient(b, k)[:2]) for b in (2, 3, 4)
       for k in range(5)]
)


@pytest.mark.parametrize(
    "make",
    [
        lambda: path_graph(1),
        lambda: path_graph(30),
        lambda: cycle_graph(12),
        lambda: tree_ball(2, 0),
        lambda: tree_ball(3, 4),
        lambda: lattice_ball(1, 9),
        lambda: lattice_ball(2, 7),
        lambda: lattice_ball(3, 0),
        lambda: tree_quotient(3, 4)[:2],
        lambda: lattice_quotient(2, 7)[:2],
    ] + [make for _, make in STATED],
    ids=["path1", "path30", "cycle", "tree_depth0", "tree", "z1", "z2", "z3_radius0",
         "tree_quotient", "z2_quotient"] + [name for name, _ in STATED],
)
def test_generator_build_and_anchor_distances_run_one_search(make, monkeypatch):
    # the builder states its anchor's distances (int64), which the
    # connectivity check certifies and the slot keeps: no search at all
    counts = count_calls(monkeypatch, _bfs)
    g, x0 = make()
    assert g.connected
    assert g._distance[0] == x0 and g._distance[1].dtype == np.int64
    np.testing.assert_array_equal(graph_distance(g, x0), reference_distance(g, x0))
    assert counts["_bfs"] == 0


@pytest.mark.parametrize(
    "make",
    [
        lambda w: path_graph(1, weight=w),
        lambda w: path_graph(4, weight=w),
        lambda w: cycle_graph(3, weight=w),
        lambda w: lattice_ball(2, 0, weight=w),
        lambda w: lattice_ball(1, 3, weight=w),
        lambda w: tree_ball(2, 0, weight=w),
        lambda w: tree_ball(2, 3, weight=w),
        lambda w: lattice_quotient(2, 0, weight=w),
        lambda w: lattice_quotient(3, 2, weight=w),
        lambda w: tree_quotient(2, 0, weight=w),
        lambda w: tree_quotient(3, 2, weight=w),
    ],
    ids=["path1", "path4", "cycle", "z2_radius0", "z1", "tree_depth0", "tree",
         "z2_quotient_radius0", "z3_quotient", "tree_quotient_depth0", "tree_quotient"],
)
def test_generator_weight_is_checked_once(make):
    # a graph with no edges checks its weight too, and the message names the param
    for bad, shown in ((-1, "-1.0"), (0.0, "0.0"), (float("inf"), "inf"), (float("nan"), "nan")):
        with pytest.raises(ValueError, match=rf"^weight must be finite and positive, got {shown}$"):
            make(bad)
    with pytest.raises(ValueError, match=r"^weight must be a single number, got \[1.0, 2.0\]$"):
        make([1.0, 2.0])
    with pytest.raises(ValueError, match=r"^weight must be numeric: got a boolean$"):
        make(True)


def test_booleans_are_not_numbers():
    # JSON true would otherwise pass as 1.0
    with pytest.raises(ValueError, match=r"^edge \(0,1\) has a boolean weight True$"):
        WeightedGraph.from_edges(2, [(0, 1, True)])
    with pytest.raises(ValueError, match=r"^edge \(1,2\) has a boolean weight False$"):
        graph_from_dict({"n": 3, "edges": [[0, 1, 1.0], [1, 2, False]]})
    with pytest.raises(ValueError, match=r"^edges must be numeric: got a boolean$"):
        WeightedGraph.from_edges(2, [(True, False, True)])
    for mu in (True, [1.0, True], np.array([True, True])):
        with pytest.raises(ValueError, match=r"^mu must be numeric: got a boolean$"):
            WeightedGraph.from_edges(2, [(0, 1, 1.0)], mu=mu)
        with pytest.raises(ValueError, match=r"^mu must be numeric: got a boolean$"):
            path_graph(2, mu=mu)


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
    q, anchor, cell_size = generate("tree_ball", cells=True, branching=2, depth=3)
    want = tree_quotient(2, 3)
    assert anchor == want[1] and np.array_equal(cell_size, want[2])
    assert np.array_equal(q.weights, want[0].weights) and np.array_equal(q.mu, want[0].mu)
    with pytest.raises(ValueError, match="'path' has no quotient"):
        generate("path", cells=True, n=4)
    # a missing shape param takes the family's default (d = 1, branching = 2)
    for family, extent, want in (
        ("lattice_zd_ball", {"radius": 3}, (lattice_ball(1, 3), lattice_quotient(1, 3))),
        ("tree_ball", {"depth": 3}, (tree_ball(2, 3), tree_quotient(2, 3))),
    ):
        for cells in (False, True):
            built = generate(family, cells=cells, **extent)[0]
            assert np.array_equal(built.indptr, want[cells][0].indptr)
            assert np.array_equal(built.weights, want[cells][0].weights)
            assert np.array_equal(built.mu, want[cells][0].mu)
    assert generate("lattice_zd_ball", radius=3)[0].n == 7
    assert generate("tree_ball", depth=3)[0].n == 15
    with pytest.raises(ValueError, match=r"^graph param depth must be an integer, got 2.5$"):
        generate("tree_ball", depth=2.5)


def test_generate_rejects_unknown_and_missing_params():
    # both raised TypeError from the generator's own signature
    for cells in (False, True):
        with pytest.raises(ValueError, match=r"^unknown tree_ball params: \['bogus'\]$"):
            generate("tree_ball", cells=cells, depth=3, bogus=1)
        with pytest.raises(ValueError, match="^tree_ball family needs depth$"):
            generate("tree_ball", cells=cells)
    with pytest.raises(ValueError, match=r"^unknown path params: \['bogus'\]$"):
        generate("path", n=3, bogus=1)
    with pytest.raises(ValueError, match="^path family needs n$"):
        generate("path")


def test_quotient_mu_is_each_cells_vertex_measure():
    # one number or one per cell; a per-vertex array of the ball does not fit
    q, _, _ = tree_quotient(2, 2, mu=[1.0, 2.0, 3.0])
    np.testing.assert_array_equal(q.mu, [1.0, 4.0, 12.0])
    with pytest.raises(ValueError, match="mu has length"):
        tree_quotient(2, 2, mu=np.ones(7))
    with pytest.raises(ValueError, match="mu has length"):
        lattice_quotient(2, 1, mu=np.ones(5))


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


def assert_same_graph(got, want):
    """Bit for bit: CSR arrays, measure, pairing, and the anchor and distances kept."""
    pairs = zip((got.indptr, got.indices, got.weights, got.mu, *got.pairing, got._distance[1]),
                (want.indptr, want.indices, want.weights, want.mu, *want.pairing, want._distance[1]))
    for a, b in pairs:
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert got._distance[0] == want._distance[0]


@pytest.mark.parametrize(
    "make",
    [
        lambda: path_graph(9),
        lambda: cycle_graph(9),
        lambda: cycle_graph(10),
        lambda: lattice_ball(1, 6),
        lambda: lattice_ball(2, 5),
        lambda: lattice_ball(3, 3),
        lambda: tree_ball(2, 4),
        lambda: tree_ball(3, 3),
        lambda: lattice_quotient(1, 8)[:2],
        lambda: lattice_quotient(2, 8, weight=0.5, mu=2.0)[:2],
        lambda: lattice_quotient(3, 6)[:2],
        lambda: tree_quotient(2, 7)[:2],
        lambda: tree_quotient(3, 6, mu=np.linspace(1.0, 2.0, 7))[:2],
        lambda: (WeightedGraph.from_edges(6, [(0, 1, 1.0), (1, 2, 2.5), (2, 2, 0.5), (2, 3, 1.0),
                                              (3, 4, 0.75), (4, 5, 3.0), (0, 5, 1.5)]), 0),
        lambda: (random_connected_graph(np.random.default_rng(7)), 0),
    ],
    ids=["path", "cycle_odd", "cycle_even", "z1", "z2", "z3", "tree2", "tree3", "z1_quotient",
         "z2_quotient", "z3_quotient", "tree2_quotient", "tree3_quotient", "from_edges_loop",
         "random"],
)
def test_nested_cut_is_the_direct_cut(make):
    # a ball cut from a larger ball is the ball cut from the graph, and its
    # map composed with the larger ball's is the direct one
    g, anchor = make()
    for x0 in (anchor, g.n // 2):
        ecc = eccentricity(g, x0)
        radii = sorted({0, 1, ecc // 2, ecc, ecc + 2})
        for outer in radii:
            ball, ball_anchor, outer_ids = truncate_ball(g, x0, outer)
            for radius in (r for r in radii if r <= outer):
                nested, nested_anchor, inner_ids = truncate_ball(ball, ball_anchor, radius)
                direct, direct_anchor, direct_ids = truncate_ball(g, x0, radius)
                assert nested_anchor == direct_anchor
                assert_same_graph(nested, direct)
                assert outer_ids[inner_ids].tolist() == direct_ids.tolist()


def test_json_roundtrip():
    rng = np.random.default_rng(5)
    g = random_connected_graph(rng)
    data = graph_to_dict(g)
    g2 = graph_from_dict(data)
    np.testing.assert_array_equal(g.indptr, g2.indptr)
    np.testing.assert_array_equal(g.indices, g2.indices)
    np.testing.assert_allclose(g.weights, g2.weights, rtol=0, atol=0)
    np.testing.assert_allclose(g.mu, g2.mu, rtol=0, atol=0)
