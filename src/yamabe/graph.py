"""Weighted-graph data model.

A graph is a dense-indexed vertex set 0..n-1 with symmetric positive edge
weights stored in CSR form and a strictly positive vertex measure ``mu``.
Construction validates symmetry, positivity, and connectedness; instances
are immutable afterwards (the backing arrays are marked read-only), so they
can be shared freely across concurrent solves.

Vertex functions are plain float64 numpy arrays of length ``graph.n``;
``integrate`` is the mu-weighted integral over the vertex set.

Validation contract (shared with ``functionals`` and ``operators``): public
functions coerce and check every vertex function they take, through
:func:`as_vertex_function` (float64, length ``graph.n``, all finite).
``_``-prefixed functions such as :func:`_integrate` assume a vertex array
that has already passed that check and do not repeat it, so the solver's
inner loop pays for validation once per public call, not once per layer.

Cost model: construction, truncation and the breadth-first search (behind
``graph_distance`` and the connectivity check) are whole-array numpy code.
The search is level-synchronous: each hop level costs a fixed few array
operations (about 13 us on a 2-core Xeon, numpy 2.4) plus C-speed work per
frontier edge, so large balls pay per edge and long thin graphs pay per level.
A graph keeps the distances from the last source searched, and a ball cut by
:func:`truncate_ball` inherits those from its anchor, so one study or CLI run
searches each graph once per source it asks for.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class WeightedGraph:
    """Connected, locally finite weighted graph with vertex measure.

    Fields are CSR adjacency arrays: ``indptr`` (n+1), ``indices`` (nnz),
    ``weights`` (nnz), plus the measure ``mu`` (n). Every edge {x, y} with
    x != y is stored in both rows with bit-identical weight; self-loops are
    stored once and contribute nothing to any difference operator.

    ``rows`` (nnz), the source vertex of every CSR slot, is derived, not
    passed: :func:`csr_rows` builds it once when the graph is made (raw
    constructor included), read-only, so no kernel call rebuilds it. It
    costs 8 * nnz bytes for as long as the graph lives.

    ``connected`` is derived too, but lazily: the first read runs one
    breadth-first search and the answer is cached on the instance, which is
    sound because the arrays are frozen. :meth:`from_edges` reads it to
    validate and :func:`truncate_ball` sets it, so ``verify.hypotheses_check``
    finds it cached; a raw graph pays the search on its first check only.

    ``_distance`` is one slot, ``(source, distances)``, holding the hop
    distances from the last source :func:`graph_distance` searched; the
    connectivity check is the search from vertex 0, the anchor of the path,
    cycle and tree generators. Another source replaces it, so it costs at
    most 8 * n bytes. :func:`truncate_ball` fills each ball's slot from its
    anchor, cut from the parent's distances.

    Use :meth:`from_edges` or the generators below; the raw constructor does
    not validate.
    """

    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray
    mu: np.ndarray
    rows: np.ndarray = field(init=False, repr=False, compare=False)
    _distance: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = csr_rows(self.indptr)
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)

    @property
    def n(self) -> int:
        return self.mu.shape[0]

    @cached_property
    def connected(self) -> bool:
        """Whether every vertex is reachable from vertex 0 (cached)."""
        return bool((_slot_distance(self, 0) >= 0).all())

    @property
    def n_edges(self) -> int:
        """Number of unordered edges, self-loops counted once."""
        return int(np.count_nonzero(self.indices >= self.rows))

    def neighbors(self, x: int) -> tuple[np.ndarray, np.ndarray]:
        """Neighbor indices and weights of vertex ``x`` (read-only views)."""
        lo, hi = self.indptr[x], self.indptr[x + 1]
        return self.indices[lo:hi], self.weights[lo:hi]

    def volume(self) -> float:
        """Total measure of the vertex set."""
        return float(np.sum(self.mu))

    @classmethod
    def from_edges(cls, n: int, edges, mu=1.0) -> "WeightedGraph":
        """Build a graph from unordered edge triples.

        Parameters
        ----------
        n : int
            Vertex count; vertices are 0..n-1.
        edges : iterable of (x, y, w), or an (m, 3) array
            Each unordered pair listed at most once, w > 0. Vertex ids must
            be integers (integral floats are accepted, booleans are not). A
            pair (x, x) is a self-loop.
        mu : float or array
            Vertex measure, scalar (broadcast) or per-vertex, all > 0.
        """
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        mu_arr = _as_float(mu, "mu")
        if mu_arr.ndim == 0:
            mu_arr = np.full(n, float(mu_arr))
        if mu_arr.shape != (n,):
            raise ValueError(f"mu has length {mu_arr.shape}, expected ({n},)")
        if not np.all(np.isfinite(mu_arr)) or np.any(mu_arr <= 0.0):
            raise ValueError("mu must be finite and strictly positive")

        edges = edges if isinstance(edges, np.ndarray) else list(edges)
        arr = _as_float(edges, "edges").reshape(len(edges), 3)
        ids, w = arr[:, :2], arr[:, 2]
        # JSON true/false would otherwise pass as the ids 1/0
        bad_id = ~np.all(np.isfinite(ids) & (np.floor(ids) == ids), axis=1)
        if isinstance(edges, list):
            bad_id |= np.array([type(e[0]) is bool or type(e[1]) is bool for e in edges], bool)
        bad_range = np.any((ids < 0) | (ids >= n), axis=1)
        bad_weight = ~(np.isfinite(w) & (w > 0.0))
        # edges[:k] pass the per-edge checks; edge k, if any, is the first to fail
        k = int(np.argmax(np.append(bad_id | bad_range | bad_weight, True)))

        # a repeat within edges[:k] comes first, then edge k's first failed check
        x, y = ids[:k].astype(np.int64).T
        lo, hi = np.minimum(x, y), np.maximum(x, y)
        _, first_seen = np.unique(lo * n + hi, return_index=True)
        if first_seen.size < k:
            j = int(np.flatnonzero(np.bincount(first_seen, minlength=k) == 0)[0])
            raise ValueError(f"duplicate edge {(int(lo[j]), int(hi[j]))}")
        if k < len(arr):
            if bad_id[k]:
                raise ValueError(f"edge ({edges[k][0]},{edges[k][1]}) has a non-integer vertex id")
            x, y = int(ids[k, 0]), int(ids[k, 1])
            if bad_range[k]:
                raise ValueError(f"edge ({x},{y}) out of range for n={n}")
            raise ValueError(f"edge ({x},{y}) has nonpositive weight {float(w[k])}")

        off = x != y
        rows = np.concatenate((x, y[off]))
        cols = np.concatenate((y, x[off]))
        vals = np.concatenate((w, w[off]))
        order = np.lexsort((cols, rows))
        indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))
        g = cls(indptr=indptr, indices=cols[order], weights=vals[order], mu=mu_arr)
        g._freeze()
        if not g.connected:
            raise ValueError("graph must be connected")
        return g

    def _freeze(self):
        for a in (self.indptr, self.indices, self.weights, self.mu):
            a.setflags(write=False)


def csr_rows(indptr) -> np.ndarray:
    """Row (source vertex) of every CSR slot: x repeated deg(x) times."""
    return np.repeat(np.arange(indptr.shape[0] - 1, dtype=np.int64), np.diff(indptr))


def _bfs(indptr, indices, x0) -> np.ndarray:
    """Hop distance from ``x0`` to every vertex (-1 if unreachable), level by level."""
    dist = np.full(indptr.shape[0] - 1, -1, dtype=np.int64)
    owner = np.empty_like(dist)
    deg = np.diff(indptr)
    dist[x0] = 0
    frontier, level = np.array([x0], dtype=np.int64), 0
    while frontier.size:
        level += 1
        # neighbors of the whole frontier: its CSR ranges, concatenated
        fdeg = deg[frontier]
        ends = np.cumsum(fdeg)
        nb = indices[np.repeat(indptr[frontier] - ends + fdeg, fdeg) + np.arange(ends[-1])]
        nb = nb[dist[nb] < 0]
        # keep each new vertex once: one of its slots survives the write-then-read
        slot = np.arange(nb.size)
        owner[nb] = slot
        frontier = nb[owner[nb] == slot]
        dist[frontier] = level
    return dist


def _as_float(value, what: str) -> np.ndarray:
    """float64 array of ``value``; a non-numeric value raises ValueError."""
    try:
        return np.asarray(value, dtype=np.float64)
    except TypeError as exc:
        raise ValueError(f"{what} must be numeric: {exc}") from exc


def as_vertex_function(g: WeightedGraph, f) -> np.ndarray:
    """Coerce ``f`` to a float64 vertex function on ``g`` and validate it."""
    arr = np.asarray(f, dtype=np.float64)
    if arr.shape != (g.n,):
        raise ValueError(f"vertex function has shape {arr.shape}, expected ({g.n},)")
    if not np.isfinite(arr).all():
        raise ValueError("vertex function contains non-finite entries")
    return arr


def integrate(g: WeightedGraph, f) -> float:
    """Integral of ``f`` against the vertex measure: sum_x mu(x) f(x)."""
    return _integrate(g, as_vertex_function(g, f))


def _integrate(g: WeightedGraph, arr: np.ndarray) -> float:
    return float((g.mu * arr).sum())


def graph_distance(g: WeightedGraph, x0: int) -> np.ndarray:
    """Hop-count distance from ``x0`` to every vertex (read-only int64 array).

    The result is kept in the graph's one distance slot, so asking again for
    the same source returns the same array without a search; copy it before
    writing to it. The slot is read once and written as one tuple, so a
    concurrent reader never pairs one source with another source's array,
    and a race between two sources costs at most a repeated search.
    """
    # a float source raises TypeError whether or not the slot holds its value
    x0 = operator.index(x0)
    if not 0 <= x0 < g.n:
        raise ValueError(f"vertex {x0} out of range")
    # construction guarantees connectedness, so every entry is >= 0
    return _slot_distance(g, x0)


def _slot_distance(g: WeightedGraph, x0: int) -> np.ndarray:
    """The slot's array if it holds ``x0``, else a new search, kept.

    The connectivity check calls this directly: its search is part of
    construction, not a distance query."""
    kept = g._distance
    if kept is not None and kept[0] == x0:
        return kept[1]
    dist = _bfs(g.indptr, g.indices, x0)
    _fill_slot(g, x0, dist)
    return dist


def _fill_slot(g: WeightedGraph, x0: int, dist: np.ndarray) -> None:
    dist.setflags(write=False)
    object.__setattr__(g, "_distance", (x0, dist))


def eccentricity(g: WeightedGraph, x0: int) -> int:
    """Largest hop distance from ``x0``."""
    return int(graph_distance(g, x0).max())


def truncate_ball(
    g: WeightedGraph, x0: int, radius: int
) -> tuple[WeightedGraph, int, np.ndarray]:
    """Induced subgraph on the ball {dist(x, x0) <= radius}.

    Returns ``(ball, anchor, new_to_old)``: ``anchor`` is x0's id in the
    ball, and ``new_to_old`` lists the kept original ids in ascending
    order, so a vertex function restricts as ``f[new_to_old]``.

    Edges with an endpoint outside the ball are dropped entirely, so the
    ball carries a free-boundary problem, not the zero-extension one:
    extending a function on the ball by zero would add w_xy |u(x)|^p for
    every dropped edge {x, y}. The energy level gamma_R of the ball
    therefore need not be nonincreasing in R, and on small balls it can
    rise.

    The ball's cached ``connected`` and its distances from the anchor are
    set without a search: every kept vertex has a shortest path to x0, and
    that path stays inside the ball.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    dist = graph_distance(g, x0)
    keep = dist <= radius
    new_to_old = np.flatnonzero(keep).astype(np.int64)
    old_to_new = np.full(g.n, -1, dtype=np.int64)
    old_to_new[new_to_old] = np.arange(new_to_old.shape[0], dtype=np.int64)

    row = g.rows
    emask = keep[row] & keep[g.indices]
    counts = np.bincount(old_to_new[row[emask]], minlength=new_to_old.shape[0])
    ball = WeightedGraph(
        indptr=np.concatenate(([0], np.cumsum(counts))),
        indices=old_to_new[g.indices[emask]],
        weights=g.weights[emask],
        mu=g.mu[new_to_old],
    )
    ball._freeze()
    object.__setattr__(ball, "connected", True)
    anchor = int(old_to_new[x0])
    _fill_slot(ball, anchor, dist[new_to_old])
    return ball, anchor, new_to_old


# ---------------------------------------------------------------------------
# Deterministic generators
# ---------------------------------------------------------------------------

def _edge_array(x, y, weight) -> np.ndarray:
    """(m, 3) edge triples joining ``x[k]`` to ``y[k]``, all with ``weight``."""
    return np.column_stack((x, y, np.full(len(x), _as_float(weight, "weight"))))


def path_graph(n: int, weight: float = 1.0, mu=1.0) -> tuple[WeightedGraph, int]:
    """Path on n vertices; anchor vertex is 0 (left end)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    edges = _edge_array(np.arange(n - 1), np.arange(1, n), weight)
    return WeightedGraph.from_edges(n, edges, mu=mu), 0


def cycle_graph(n: int, weight: float = 1.0, mu=1.0) -> tuple[WeightedGraph, int]:
    """Cycle on n >= 3 vertices; anchor vertex is 0."""
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    edges = _edge_array(np.arange(n), (np.arange(n) + 1) % n, weight)
    return WeightedGraph.from_edges(n, edges, mu=mu), 0


def lattice_ball(d: int, radius: int, weight: float = 1.0, mu=1.0) -> tuple[WeightedGraph, int]:
    """Hop ball of the integer lattice Z^d around the origin.

    Vertices are the lattice points with l1 norm <= radius (hop distance on
    Z^d equals the l1 distance), numbered in lexicographic order of their
    coordinates; edges join nearest neighbors inside the ball. Anchor vertex
    is the origin.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if radius < 0:
        raise ValueError("radius must be >= 0")

    # append one coordinate z at a time, |z| <= remaining l1 budget, ascending, so the
    # row-major keys in the box [-radius, radius]^d stay sorted (Python ints past int64)
    width = 2 * int(radius) + 1
    keys = np.zeros(1, dtype=np.int64 if width ** (d + 1) < 2**63 else object)
    budget = np.array([radius])
    for _ in range(d):
        span = 2 * budget + 1
        z = np.arange(span.sum()) - np.repeat(np.cumsum(span) - span + budget, span)
        keys = np.repeat(keys, span) * width + (z + radius)
        budget = np.repeat(budget, span) - np.abs(z)
    edges = []
    for s in (width**axis for axis in range(d)):
        j = np.minimum(np.searchsorted(keys, keys + s), len(keys) - 1)
        hit = np.flatnonzero(keys[j] == keys + s)
        edges.append(_edge_array(hit, j[hit], weight))
    g = WeightedGraph.from_edges(len(keys), np.concatenate(edges), mu=mu)
    # negation maps the ball to itself reversing the order: the origin is the middle
    return g, len(keys) // 2


def tree_ball(branching: int, depth: int, weight: float = 1.0, mu=1.0) -> tuple[WeightedGraph, int]:
    """Rooted tree with fixed branching, truncated at ``depth``; anchor is the root."""
    if branching < 2:
        raise ValueError("branching must be >= 2")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    n = sum(branching**k for k in range(depth + 1))
    # vertices are numbered level by level, so vertex c > 0 has parent (c - 1) // branching
    child = np.arange(1, n)
    edges = _edge_array((child - 1) // branching, child, weight)
    return WeightedGraph.from_edges(n, edges, mu=mu), 0


_FAMILIES = {
    "path": path_graph,
    "cycle": cycle_graph,
    "lattice_zd_ball": lattice_ball,
    "tree_ball": tree_ball,
}


def generate(family: str, **params) -> tuple[WeightedGraph, int]:
    """Dispatch to a named generator; returns (graph, anchor vertex)."""
    try:
        builder = _FAMILIES[family]
    except KeyError:
        raise ValueError(
            f"unknown family {family!r}; expected one of {sorted(_FAMILIES)}"
        ) from None
    return builder(**params)


# ---------------------------------------------------------------------------
# Plain-dict form
# ---------------------------------------------------------------------------

def graph_to_dict(g: WeightedGraph) -> dict:
    """Plain-dict form: edges listed once per unordered pair."""
    row = g.rows
    once = g.indices >= row
    edges = [
        [int(x), int(y), float(w)]
        for x, y, w in zip(row[once], g.indices[once], g.weights[once])
    ]
    return {"n": g.n, "edges": edges, "mu": [float(m) for m in g.mu]}


def graph_from_dict(data: dict) -> WeightedGraph:
    """Inverse of :func:`graph_to_dict`; symmetrizes and validates."""
    try:
        n = int(data["n"])
        edges = [(e[0], e[1], e[2]) for e in data["edges"]]
        mu = data.get("mu", 1.0)
    except (KeyError, IndexError, TypeError) as exc:
        raise ValueError(f"malformed graph dict: {exc}") from exc
    return WeightedGraph.from_edges(n, edges, mu=mu)
