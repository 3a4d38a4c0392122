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
:func:`as_vertex_function` (numeric, not a string or a boolean; float64,
length ``graph.n``, all finite).
``_``-prefixed functions such as :func:`_integrate` assume a vertex array
that has already passed that check and do not repeat it, so the solver's
inner loop pays for validation once per public call, not once per layer.

Cost model: construction, truncation and the breadth-first search (behind
``graph_distance``) are whole-array numpy code. The search is
level-synchronous: each hop level costs a fixed few array operations (about
13 us on a 2-core Xeon, numpy 2.4) plus C-speed work per frontier edge, so
large balls pay per edge and long thin graphs pay per level. Every graph the
package builds comes out of one assembler, which writes the CSR arrays from
per-row degrees and keeps the hop distances from an anchor. A generator and
a quotient builder state their anchor's distances in closed form, and a ball
cut by :func:`truncate_ball` cuts them from its parent's; the assembler
certifies a stated labelling, and with it connectivity, in one pass over the
edges. Only :meth:`WeightedGraph.from_edges` searches, from vertex 0, and
only a query from another source than the anchor pays a search of its own.
A ball also inherits its parent's edge pairing instead of deriving it.

The quotient builders (:func:`lattice_quotient`, :func:`tree_quotient`)
cost per cell, not per vertex: the Z^2 ball of radius 128 has 4,225 orbits
for its 33,025 points, and Z^d about 2^d d! times fewer orbits than points
as the radius grows; a tree has one cell per level. Their cells' hop
distances, measures and sizes can also be had without the graph
(:func:`_cell_data`, the sixth entry of ``_FAMILIES``), bit for bit the
graph's: an exhaustion study takes its universe beyond the largest ball
from them.
A lattice or tree ball with a scalar mu builds its own quotient, and the
map from its vertices to their cells (one sort of the points' orbit keys),
only when a solve first asks (:func:`_orbit_quotient`): for the Z^2 ball
of radius 120 that ask takes about 10 ms, 7 of them the quotient, against
about 27 ms for the ball itself, and the ball is built no slower.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import InitVar, dataclass, field

import numpy as np


@dataclass(frozen=True)
class WeightedGraph:
    """Connected, locally finite weighted graph with vertex measure.

    Fields are CSR adjacency arrays: ``indptr`` (n+1), ``indices`` (nnz),
    ``weights`` (nnz), plus the measure ``mu`` (n). Every edge {x, y} with
    x != y is stored in both rows with bit-identical weight; self-loops are
    stored once and contribute nothing to any difference operator.

    ``pairing``, the kernels' view of the edges, is derived, not passed:
    :func:`csr_pairing` builds it once when the graph is made (raw
    constructor included), read-only, so no kernel call rebuilds it. It
    pairs every slot with its mirror, so even the raw constructor rejects,
    with ValueError naming the slot, a CSR in which some row's columns do
    not strictly ascend (a repeated slot included), some slot has no
    mirror, or two mirrored slots differ in weight by any amount. Every
    edge then has one weight, and the energy identity holds by
    construction. The pairing costs 12 bytes per slot for as long as the
    graph lives: an 8-byte bin per slot and an 8-byte weight per edge.
    The one exception is private: a :func:`truncate_ball` ball hands over
    its parent's pairing, cut and relabelled (``_pairing``), which is
    already what :func:`csr_pairing` would derive, so it is not derived
    again.

    ``_distance`` is ``(anchor, distances)``, the hop distances from the
    anchor the graph was built around, written once when it is made:
    :meth:`from_edges` searches from vertex 0, a generator states its
    anchor's and a :func:`truncate_ball` ball cuts its anchor's from the
    parent's; :func:`_assemble` certifies a stated labelling. Nothing
    replaces it. A raw graph has None.

    ``connected`` reads those distances; a raw graph searches from vertex 0
    on every ask.

    ``_orbits`` is filled only by :func:`lattice_ball` and :func:`tree_ball`
    given a scalar ``mu``: their symmetries that fix the anchor (the signed
    coordinate permutations, the permutations of each vertex's subtrees)
    preserve the graph and mu. Until :func:`_orbit_quotient` first asks, it
    is a function that builds the orbits, so a generator pays nothing for
    it; the first ask replaces it with ``(cell, first, quotient)``: each
    vertex's cell, numbered as
    :func:`lattice_quotient` or :func:`tree_quotient` numbers them, each
    cell's lowest vertex, and that builder's quotient graph. Every other
    graph keeps None.

    Use :meth:`from_edges` or the generators below; the raw constructor
    checks only the pairing's rules.
    """

    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray
    mu: np.ndarray
    _pairing: InitVar[tuple | None] = None
    pairing: tuple = field(init=False, repr=False, compare=False)
    _distance: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _orbits: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self, _pairing):
        pairing = csr_pairing(self.indptr, self.indices, self.weights) if _pairing is None else _pairing
        for a in pairing:
            a.setflags(write=False)
        object.__setattr__(self, "pairing", pairing)

    @property
    def n(self) -> int:
        return self.mu.shape[0]

    @property
    def connected(self) -> bool:
        """Whether every vertex is reachable from the anchor (a raw graph's vertex 0)."""
        dist = _bfs(self.indptr, self.indices, 0) if self._distance is None else self._distance[1]
        return bool((dist >= 0).all())

    @property
    def n_edges(self) -> int:
        """Number of unordered edges, self-loops counted once."""
        return self.pairing[1].shape[0]

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
        mu_arr = _measure(mu, n)

        edges = edges if isinstance(edges, np.ndarray) else list(edges)
        arr = _as_float(edges, "edges").reshape(len(edges), 3)
        ids, w = arr[:, :2], arr[:, 2]
        # JSON true/false among numbers would otherwise pass as the ids or weights 1/0
        is_bool = np.zeros((len(arr), 3), dtype=bool)
        if isinstance(edges, list):
            is_bool = np.array([[type(v) is bool for v in e] for e in edges], bool).reshape(-1, 3)
        bad_id = ~np.all(np.isfinite(ids) & (np.floor(ids) == ids) & ~is_bool[:, :2], axis=1)
        bad_range = np.any((ids < 0) | (ids >= n), axis=1)
        bad_weight = ~(np.isfinite(w) & (w > 0.0)) | is_bool[:, 2]
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
            if is_bool[k, 2]:
                raise ValueError(f"edge ({x},{y}) has a boolean weight {edges[k][2]}")
            raise ValueError(f"edge ({x},{y}) has nonpositive weight {float(w[k])}")

        off = x != y
        rows = np.concatenate((x, y[off]))
        cols = np.concatenate((y, x[off]))
        vals = np.concatenate((w, w[off]))
        order = np.lexsort((cols, rows))
        return _assemble(np.bincount(rows, minlength=n), cols[order], vals[order], mu_arr, 0)


def csr_rows(indptr) -> np.ndarray:
    """Row (source vertex) of every CSR slot: x repeated deg(x) times."""
    return np.repeat(np.arange(indptr.shape[0] - 1, dtype=np.int64), np.diff(indptr))


def csr_pairing(indptr, indices, weights) -> tuple[np.ndarray, np.ndarray]:
    """Every unordered edge's endpoints and its one weight.

    The edges are the slots (lo, hi) with hi >= lo, m of them, self-loops
    included, in CSR order. Returns ``(bins, w)``: ``bins`` (2m) holds each
    edge's hi, then each edge's lo; ``w`` (m) holds each edge's weight, 0.0
    for a loop, which adds nothing to any difference operator. A kernel that
    writes an edge's two terms as one (2, m) array reduces them onto their
    vertices with one ``bincount`` over ``bins``.

    Each row's columns must strictly ascend, and every slot (x, y) must have
    a mirror slot (y, x) of the same weight, bit for bit; the first slot that
    breaks a rule raises ValueError naming it.
    """
    rows = csr_rows(indptr)
    n = indptr.shape[0] - 1
    if (unsorted := np.flatnonzero((indices[1:] <= indices[:-1]) & (rows[1:] == rows[:-1]))).size:
        k, x = unsorted[0] + 1, rows[unsorted[0]]
        raise ValueError(f"CSR slot {k} ({x}, {indices[k]}): the columns of row {x} do not strictly ascend")
    upper = indices >= rows
    once, below = np.flatnonzero(upper), np.flatnonzero(~upper)
    bins = np.concatenate((indices[once], rows[once]))
    hi, lo = bins[:once.size], bins[once.size:]
    edge = np.flatnonzero(hi != lo)
    # the other slots in the order of the edges they mirror: the slots are in
    # (row, column) order, so a stable sort by column puts them in (column, row) order
    below = below[np.argsort(indices[below], kind="stable")]
    if edge.size != below.size or (lo[edge] != indices[below]).any() or (hi[edge] != rows[below]).any():
        want, got = lo[edge] * n + hi[edge], indices[below] * n + rows[below]
        # keys ascend on both sides: at the first difference the smaller one is unmatched
        k = int(np.argmax(np.append(want[:got.size] != got[:want.size], True)))
        lone = once[edge[k]] if k < want.size and (k == got.size or want[k] < got[k]) else below[k]
        x, y = int(rows[lone]), int(indices[lone])
        raise ValueError(f"CSR slot {lone} ({x}, {y}) has no mirror slot ({y}, {x})")
    w = weights[once]
    if (unequal := np.flatnonzero(weights[below] != w[edge])).size:
        k, j = below[unequal[0]], once[edge[unequal[0]]]
        x, y, wk, wj = rows[k], indices[k], float(weights[k]), float(weights[j])
        raise ValueError(f"CSR slot {k} ({x}, {y}) weighs {wk!r} but its mirror slot {j} ({y}, {x}) weighs {wj!r}")
    w[hi == lo] = 0.0
    return bins, w


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
    """float64 array of ``value``; a non-numeric one (strings, booleans, a
    boolean among the numbers of a list) raises ValueError."""
    arr = np.asarray(value)
    try:
        if arr.dtype.kind in "US":  # numpy would parse "0" as 0.0
            raise TypeError("got a string")
        # and True as 1.0, also among numbers, which do not make the array boolean
        if arr.dtype.kind == "b" or isinstance(value, (list, tuple)) and any(type(v) is bool for v in value):
            raise TypeError("got a boolean")
        return arr.astype(np.float64, copy=False)
    except TypeError as exc:
        raise ValueError(f"{what} must be numeric: {exc}") from exc


def _measure(mu, n: int) -> np.ndarray:
    """Vertex measure, all finite and > 0: scalar ``mu`` broadcast to n vertices, or one each."""
    mu_arr = _as_float(mu, "mu")
    if mu_arr.ndim == 0:
        mu_arr = np.full(n, float(mu_arr))
    else:
        mu_arr = mu_arr.copy()  # the graph freezes its measure; the caller's array stays theirs
    if mu_arr.shape != (n,):
        raise ValueError(f"mu has length {mu_arr.shape}, expected ({n},)")
    if not np.all(np.isfinite(mu_arr)) or np.any(mu_arr <= 0.0):
        raise ValueError("mu must be finite and strictly positive")
    return mu_arr


def _integer(value, what: str) -> int:
    """``value`` as an int: an integer or an integral float, not a boolean or a string."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        if isinstance(value, numbers.Integral) or float(value).is_integer():
            return int(value)
    raise ValueError(f"{what} must be an integer, got {value!r}")


def _number(value, what: str) -> float:
    """``value`` as a float: any real number, not a boolean or a string."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return float(value)
    raise ValueError(f"{what} must be a number, got {value!r}")


def as_vertex_function(g: WeightedGraph, f) -> np.ndarray:
    """Coerce ``f`` to a float64 vertex function on ``g`` and validate it:
    numeric (no strings or booleans, see ``_as_float``), one entry per
    vertex, all finite. A float64 array comes back as itself."""
    return _finite_vector(f, g.n, "vertex function")


def _finite_vector(value, n: int, what: str) -> np.ndarray:
    """``value`` as a float64 array of n finite entries; else ValueError naming ``what``."""
    arr = _as_float(value, what)
    if arr.shape != (n,):
        raise ValueError(f"{what} has shape {arr.shape}, expected ({n},)")
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} contains non-finite entries")
    return arr


def integrate(g: WeightedGraph, f) -> float:
    """Integral of ``f`` against the vertex measure: sum_x mu(x) f(x)."""
    return _integrate(g, as_vertex_function(g, f))


def _integrate(g: WeightedGraph, arr: np.ndarray) -> float:
    return float((g.mu * arr).sum())


def graph_distance(g: WeightedGraph, x0: int) -> np.ndarray:
    """Hop-count distance from ``x0`` to every vertex (read-only int64 array).

    The anchor's are the graph's own, the same array on every ask, stated
    by its builder (or found by :meth:`WeightedGraph.from_edges`' search)
    and certified when it was made; any other source is searched afresh
    and not kept, and this is the only place a built graph searches. Copy
    before writing.
    """
    # a boolean, a string or a fraction raises ValueError, even for the anchor
    x0 = _integer(x0, "x0")
    if not 0 <= x0 < g.n:
        raise ValueError(f"vertex {x0} out of range")
    kept = g._distance
    if kept is not None and kept[0] == x0:
        return kept[1]
    # a built graph is connected, so every entry is >= 0 (a raw one marks unreachable -1)
    dist = _bfs(g.indptr, g.indices, x0)
    dist.setflags(write=False)
    return dist


def _orbit_quotient(g: WeightedGraph, x0: int):
    """``(cell, first, quotient)`` of the graph's orbits around ``x0`` (see
    :class:`WeightedGraph`), built on the first ask and kept, or None when
    the graph keeps no orbits around ``x0``. It is read once and written as
    one tuple, so a race costs at most a repeated build."""
    orbits = g._orbits
    if orbits is None or g._distance[0] != x0:
        return None
    if callable(orbits):
        orbits = orbits()
        for a in orbits[:2]:
            a.setflags(write=False)
        object.__setattr__(g, "_orbits", orbits)
    return orbits


def _assemble(degree, cols, weights, mu, anchor: int, dist=None, pairing=None) -> WeightedGraph:
    """The frozen graph whose row x holds the next ``degree[x]`` entries of
    ``cols`` and ``weights``, keeping the distances from ``anchor``.

    Every graph the package builds ends here. ``dist`` is the builder's own
    int64 labelling of the hop distances from ``anchor`` (a generator's
    closed form, a ball's cut from its parent's); without one, the search
    from ``anchor`` finds them. A stated labelling is certified in one pass
    over the pairing: the anchor is 0, every edge's ends differ by at most 1,
    and every other vertex has a neighbour exactly one closer. A labelling
    that passes is the hop distance (the last rule bounds it from above by
    induction outwards, the second from below), so every vertex is
    reachable; one that fails, like a search that misses a vertex, raises
    ValueError("graph must be connected"). ``pairing``, where given, is the
    graph's own (see :class:`WeightedGraph`).
    """
    indptr = np.concatenate(([0], np.cumsum(degree)))
    g = WeightedGraph(indptr=indptr, indices=cols, weights=weights, mu=mu, _pairing=pairing)
    if dist is None:
        dist = _bfs(indptr, cols, anchor)
        connected = (dist >= 0).all()
    else:
        ends = g.pairing[0].reshape(2, -1)
        step = np.subtract(*dist[ends])  # each edge's hi minus its lo
        closer = np.zeros(g.n, dtype=bool)
        closer[ends[0, step == 1]] = True
        closer[ends[1, step == -1]] = True
        closer[anchor] = True
        connected = dist[anchor] == 0 and closer.all() and (np.abs(step) <= 1).all()
    if not connected:
        raise ValueError("graph must be connected")
    for a in (indptr, cols, weights, mu, dist):
        a.setflags(write=False)
    object.__setattr__(g, "_distance", (anchor, dist))
    return g


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

    The ball's distances from the anchor are cut from the parent's, with no
    search: every kept vertex has a shortest path to x0, and that path stays
    inside the ball, so the ball is connected too (:func:`_assemble`
    certifies the cut distances in one pass). Its pairing is the parent's
    too: the edges with both ends kept, in the parent's order and
    relabelled by the ascending map of kept ids, which is what
    :func:`csr_pairing` derives from the ball's CSR. ``x0`` and ``radius``
    must be integers: a boolean, a string or a fraction raises ValueError.
    """
    x0, radius = _integer(x0, "x0"), _integer(radius, "radius")
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    dist = graph_distance(g, x0)
    keep = dist <= radius
    new_to_old = np.flatnonzero(keep).astype(np.int64)
    old_to_new = np.full(g.n, -1, dtype=np.int64)
    old_to_new[new_to_old] = np.arange(new_to_old.shape[0], dtype=np.int64)

    row = csr_rows(g.indptr)
    emask = keep[row] & keep[g.indices]
    ends, w = g.pairing[0].reshape(2, -1), g.pairing[1]
    both = keep[ends].all(axis=0)
    anchor = int(old_to_new[x0])
    ball = _assemble(
        np.bincount(old_to_new[row[emask]], minlength=new_to_old.shape[0]),
        old_to_new[g.indices[emask]], g.weights[emask], g.mu[new_to_old], anchor, dist[new_to_old],
        (old_to_new[np.compress(both, ends, axis=1)].ravel(), w[both]),
    )
    return ball, anchor, new_to_old


# ---------------------------------------------------------------------------
# Deterministic generators
# ---------------------------------------------------------------------------

def _edge_weight(weight) -> float:
    """A generator's one edge weight: a single finite number > 0."""
    w = _as_float(weight, "weight")
    if w.ndim:
        raise ValueError(f"weight must be a single number, got {weight!r}")
    if not (np.isfinite(w) and w > 0.0):
        raise ValueError(f"weight must be finite and positive, got {float(w)}")
    return float(w)


def _quotient_graph(nbr, weight, mu, dist, anchor=0, count=1, size=1) -> tuple[WeightedGraph, int, np.ndarray]:
    """Quotient of a generator graph by a partition into cells, as ``(graph, anchor, cell_size)``.

    Row x of ``nbr`` is cell x, with ``size[x]`` vertices, each of which has
    ``count[x, k]`` neighbours in cell ``nbr[x, k]``; an entry outside
    0..n-1 marks no neighbour. ``dist`` (int64) is each cell's hop distance
    from the anchor's, which :func:`_assemble` certifies instead of
    searching. Each row must list its neighbours in
    ascending order and each edge must sit in both of its rows, so the CSR
    arrays come out as :meth:`WeightedGraph.from_edges` sorts them, with no
    duplicate search and no sort. ``mu`` is each vertex's measure: one
    number, or one per cell. The measure and weights are the vertices'
    summed: M = size * mu and E = size[x] * count[x, k] * weight. That
    integer counts the edges between two cells from either end, so both
    rows of a quotient edge get the same float. ``cell_size`` is ``size``
    as float64.

    A generator graph is its own quotient, with one-vertex cells and
    ``count`` 1, as the defaults give: its weights are ``weight`` and its
    measure ``mu``, bit for bit.
    """
    size = np.asarray(size)
    w, dist, mass, cell_size = _cell_data(dist, weight, mu, size)
    valid = (nbr >= 0) & (nbr < nbr.shape[0])
    pairs = np.broadcast_to(size[..., None] * count, nbr.shape)[valid].astype(np.float64)
    return _assemble(np.count_nonzero(valid, axis=1), nbr[valid], pairs * w, mass, anchor, dist), anchor, cell_size


def _cell_data(dist, weight, mu, size: np.ndarray):
    """A quotient's cells without its graph, checked and computed as
    :func:`_quotient_graph` builds the graph from them: ``(weight, dist,
    measure, cell_size)``, the edge weight, and each cell's hop distance
    from the anchor's, measure and vertex count (``size``: a 0-d array or
    one per cell)."""
    w = _edge_weight(weight)
    mu_arr = _measure(mu, dist.shape[0])
    try:
        cell_size = size.astype(np.float64)
    except OverflowError:  # a Python int past the float64 range
        cell_size = np.full(size.shape, np.inf)
    with np.errstate(over="ignore"):  # named just below
        mass = cell_size * mu_arr
    if not np.isfinite(mass).all():
        raise ValueError("the cells' measure overflows float64")
    return w, dist, mass, cell_size


def _keep_orbits(g: WeightedGraph, anchor: int, mu, build) -> tuple[WeightedGraph, int]:
    """``(g, anchor)``, with ``build`` kept as its orbits when ``mu`` is one number."""
    if np.ndim(mu) == 0:
        object.__setattr__(g, "_orbits", build)
    return g, anchor


def path_graph(n: int, weight: float = 1.0, mu=1.0) -> tuple[WeightedGraph, int]:
    """Path on n vertices; anchor vertex is 0 (left end)."""
    n = _integer(n, "n")
    if n < 1:
        raise ValueError("n must be >= 1")
    x = np.arange(n)
    return _quotient_graph(np.column_stack((x - 1, x + 1)), weight, mu, x)[:2]


def cycle_graph(n: int, weight: float = 1.0, mu=1.0) -> tuple[WeightedGraph, int]:
    """Cycle on n >= 3 vertices; anchor vertex is 0."""
    n = _integer(n, "n")
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    x = np.arange(n)
    nbr = np.sort(np.column_stack(((x - 1) % n, (x + 1) % n)), axis=1)
    return _quotient_graph(nbr, weight, mu, np.minimum(x, n - x))[:2]


def _check_lattice(d, radius) -> tuple[int, int]:
    """``(d, radius)`` as ints, d >= 1 and radius >= 0; else ValueError naming the param."""
    d, radius = _integer(d, "d"), _integer(radius, "radius")
    if d < 1:
        raise ValueError("d must be >= 1")
    if radius < 0:
        raise ValueError("radius must be >= 0")
    return d, radius


def lattice_ball(d: int, radius: int, weight: float = 1.0, mu=1.0) -> tuple[WeightedGraph, int]:
    """Hop ball of the integer lattice Z^d around the origin.

    Vertices are the lattice points with l1 norm <= radius (hop distance on
    Z^d equals the l1 distance), numbered in lexicographic order of their
    coordinates; edges join nearest neighbors inside the ball. Anchor vertex
    is the origin. With a scalar ``mu`` the graph keeps its orbits under the
    signed permutations of the coordinates (see :class:`WeightedGraph`).
    """
    d, radius = _check_lattice(d, radius)

    # append one coordinate z at a time, |z| <= remaining l1 budget, ascending, so the
    # row-major keys in the box [-radius, radius]^d stay sorted (Python ints past int64)
    width = 2 * radius + 1
    keys = np.zeros(1, dtype=np.int64 if width ** (d + 1) < 2**63 else object)
    budget = np.array([radius])
    for _ in range(d):
        span = 2 * budget + 1
        z = np.arange(span.sum()) - np.repeat(np.cumsum(span) - span + budget, span)
        keys = np.repeat(keys, span) * width + (z + radius)
        budget = np.repeat(budget, span) - np.abs(z)
    # a step along axis a moves the key by width**a: these offsets ascend, and so do
    # the ids of the neighbours they reach; -1 marks a step out of the ball
    steps = [width**axis for axis in range(d)]
    target = keys[:, None] + np.array([-s for s in reversed(steps)] + steps, dtype=keys.dtype)
    nbr = np.minimum(np.searchsorted(keys, target), len(keys) - 1)
    nbr[keys[nbr] != target] = -1
    # negation maps the ball to itself reversing the order: the origin is the middle
    g, anchor = _quotient_graph(nbr, weight, mu, radius - budget, len(keys) // 2)[:2]
    return _keep_orbits(
        g, anchor, mu, lambda: (*_lattice_cells(d, radius, keys), lattice_quotient(d, radius, weight, mu)[0])
    )


def _lattice_cells(d: int, radius: int, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each :func:`lattice_ball` point's cell in :func:`lattice_quotient`'s
    numbering, and each cell's lowest point, from the points' keys.

    A point's orbit is its sorted absolute coordinates; their base-(radius + 2)
    keys ascend with the cells' lexicographic order, and every cell holds a
    point, so a cell's number is its key's rank among the points' keys.
    """
    width, base = 2 * radius + 1, radius + 2
    coords = np.column_stack([keys // width**axis % width - radius for axis in range(d)])
    a = np.sort(np.abs(coords), axis=1)
    orbit = a[:, 0]
    for k in range(1, d):
        orbit = orbit * base + a[:, k]
    _, first, cell = np.unique(orbit, return_index=True, return_inverse=True)
    return cell.astype(np.int64), first


def lattice_quotient(
    d: int, radius: int, weight: float = 1.0, mu=1.0
) -> tuple[WeightedGraph, int, np.ndarray]:
    """Quotient of :func:`lattice_ball` by the signed permutations of the coordinates.

    These fix the origin and preserve the l1 norm, so each orbit (a cell)
    lies at one hop distance from the origin. Cell i holds the points whose
    sorted absolute coordinates are a_1 <= ... <= a_d, cells numbered in
    lexicographic order of that tuple (the origin's cell, the anchor, is 0);
    it has 2^(#nonzero a) d! / prod(multiplicity!) points. Returns
    ``(graph, 0, cell_size)``: see :func:`_quotient_graph` for its measure
    and weights.
    """
    d, radius = _check_lattice(d, radius)
    cells, keys, first, end, size = _lattice_cell_tuples(d, radius)
    base = radius + 2
    dtype = keys.dtype
    col = np.arange(d)
    length = end - first + 1
    # a representative's steps that stay sorted: -1 on the first entry of a nonzero run and
    # +1 on the last of any run, each standing for the run's length of steps (from 0, both
    # signs land on 1). Lowering an earlier entry, or raising a later one, gives a smaller
    # tuple, so these targets ascend and are distinct: no sort, no duplicates
    power = np.array([base ** (d - 1 - k) for k in range(d)], dtype=dtype)
    down = np.where((first == col) & (cells > 0), keys[:, None] - power, -1)
    dist = cells.sum(axis=1)
    inside = (dist < radius)[:, None]
    up = np.where((end == col) & inside, keys[:, None] + power, -1)[:, ::-1]
    target = np.concatenate((down, up), axis=1)
    nbr = np.where(target >= 0, np.searchsorted(keys, target), -1)
    count = np.concatenate((length, (length * np.where(cells == 0, 2, 1))[:, ::-1]), axis=1)
    return _quotient_graph(nbr, weight, mu, dist, count=count, size=size)


def _lattice_cell_tuples(d: int, radius: int):
    """:func:`lattice_quotient`'s cells, in its order: ``(cells, keys, first, end,
    size)``, each cell's sorted absolute coordinates (one row), their
    base-(radius + 2) keys, where the run of equal entries around each entry
    starts and ends, and the cell's point count."""
    # nondecreasing tuples, one coordinate at a time: with m coordinates left, the next
    # is at least the last and leaves room for the m - 1 after it: next * m <= budget;
    # their base-(radius + 2) keys ascend with them (Python ints past int64)
    base = radius + 2
    dtype = np.int64 if base ** (d + 1) < 2**63 else object
    cells, keys = np.zeros((1, 0), dtype=np.int64), np.zeros(1, dtype=dtype)
    last, budget = np.zeros(1, dtype=np.int64), np.array([radius], dtype=np.int64)
    for m in range(d, 0, -1):
        span = budget // m - last + 1
        v = np.arange(span.sum()) - np.repeat(np.cumsum(span) - span - last, span)
        cells = np.column_stack((np.repeat(cells, span, axis=0), v))
        keys = np.repeat(keys, span) * base + v
        budget, last = np.repeat(budget, span) - v, v

    # a run of equal entries a_first..a_end: entry k's run starts at first[:, k], ends at end[:, k]
    first, end = np.zeros_like(cells), np.full_like(cells, d - 1)
    for k in range(1, d):
        first[:, k] = np.where(cells[:, k] == cells[:, k - 1], first[:, k - 1], k)
        j = d - 1 - k
        end[:, j] = np.where(cells[:, j] == cells[:, j + 1], end[:, j + 1], j)

    # orbit size: d! over the product of the run lengths so far (each prefix divides
    # exactly), times a sign choice for every nonzero entry
    dtype = np.int64 if 2 * d * 2**d * math.factorial(d) < 2**63 else object
    size = np.full(len(cells), math.factorial(d), dtype=dtype)
    for k in range(1, d):
        size //= k - first[:, k] + 1
    size *= np.array([2**k for k in range(d + 1)], dtype=dtype)[np.count_nonzero(cells, axis=1)]
    return cells, keys, first, end, size


def _lattice_cell_data(d: int, radius: int, weight: float = 1.0, mu=1.0):
    """:func:`lattice_quotient`'s cells as ``(dist, measure, cell_size)`` (see :func:`_cell_data`)."""
    d, radius = _check_lattice(d, radius)
    cells, *_, size = _lattice_cell_tuples(d, radius)
    return _cell_data(cells.sum(axis=1), weight, mu, size)[1:]


def _check_tree(branching, depth) -> tuple[int, int]:
    """``(branching, depth)`` as ints, branching >= 2 and depth >= 0; else ValueError naming the param."""
    branching, depth = _integer(branching, "branching"), _integer(depth, "depth")
    if branching < 2:
        raise ValueError("branching must be >= 2")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    return branching, depth


def tree_ball(branching: int, depth: int, weight: float = 1.0, mu=1.0) -> tuple[WeightedGraph, int]:
    """Rooted tree with fixed branching, truncated at ``depth``; anchor is the
    root. With a scalar ``mu`` the graph keeps its orbits, its levels (see
    :class:`WeightedGraph`)."""
    branching, depth = _check_tree(branching, depth)
    level = [branching**k for k in range(depth + 1)]
    # vertices are numbered level by level: v has parent (v - 1) // branching (-1 for
    # the root) and children branching * v + 1 .. branching * v + branching (< n)
    v = np.arange(sum(level))
    children = branching * v[:, None] + np.arange(1, branching + 1)
    # a vertex's level is its distance from the root, and its cell among the orbits
    depth_of = np.repeat(np.arange(depth + 1), level)
    g, anchor = _quotient_graph(np.column_stack(((v - 1) // branching, children)), weight, mu, depth_of)[:2]
    return _keep_orbits(g, anchor, mu, lambda: (
        depth_of,
        np.cumsum([0] + level[:-1]),
        tree_quotient(branching, depth, weight, mu)[0],
    ))


def tree_quotient(
    branching: int, depth: int, weight: float = 1.0, mu=1.0
) -> tuple[WeightedGraph, int, np.ndarray]:
    """Quotient of :func:`tree_ball` by level: a weighted path on levels 0..depth.

    Level k has branching^k vertices, each with one parent and ``branching``
    children, so M_k = branching^k mu and E_{k,k+1} = branching^(k+1) weight
    (mu: one number, or one per level). Returns ``(graph, 0, cell_size)``.
    """
    branching, depth = _check_tree(branching, depth)
    k = np.arange(depth + 1)
    nbr = np.column_stack((k - 1, k + 1))
    size = _tree_level_sizes(branching, depth)
    return _quotient_graph(nbr, weight, mu, k, count=np.array([1, branching]), size=size)


def _tree_level_sizes(branching: int, depth: int) -> np.ndarray:
    """branching^k for levels k = 0..depth: int64, or Python ints past its range."""
    big = branching ** (depth + 1) >= 2**63
    return np.array([branching**j for j in range(depth + 1)], dtype=object if big else np.int64)


def _tree_cell_data(branching: int, depth: int, weight: float = 1.0, mu=1.0):
    """:func:`tree_quotient`'s levels as ``(dist, measure, cell_size)`` (see :func:`_cell_data`)."""
    branching, depth = _check_tree(branching, depth)
    return _cell_data(np.arange(depth + 1), weight, mu, _tree_level_sizes(branching, depth))[1:]


# Each family: its generator, the param that sets its extent, the offset that turns a
# ball radius into that extent (None: a radius cannot stand in; a path reaches hop R
# with R + 1 vertices), its shape params with their defaults, the builder of its
# quotient by the symmetries that fix the anchor (None: not built), and that
# quotient's cells without its graph (see _cell_data).
_FAMILIES = {
    "path": (path_graph, "n", 1, {}, None, None),
    "cycle": (cycle_graph, "n", None, {}, None, None),
    "lattice_zd_ball": (lattice_ball, "radius", 0, {"d": 1}, lattice_quotient, _lattice_cell_data),
    "tree_ball": (tree_ball, "depth", 0, {"branching": 2}, tree_quotient, _tree_cell_data),
}


def _family_params(family: str, params, radius=None, by_radius: bool = False) -> dict:
    """``params`` of a ``_FAMILIES`` family, or of the explicit one (``data``, ``x0``), as a
    new dict; with ``by_radius``, a missing extent is ``radius`` plus the family's offset, if
    it has one. A family's extent and shape params are ints, a missing shape param its
    default. An unlisted param, a missing extent or a non-integer size raises ValueError
    naming it."""
    extent, offset, allowed = "data", None, {"data", "x0"}
    if family != "explicit":
        _, extent, offset, shape, *_ = _FAMILIES[family]
        allowed = {extent, *shape, "weight", "mu"}
    unknown = set(params) - allowed
    if unknown:
        raise ValueError(f"unknown {family} params: {sorted(unknown)}")
    if extent not in params:
        if radius is None or not by_radius or offset is None:
            alt = " or a radius" if by_radius and offset is not None and extent != "radius" else ""
            raise ValueError(f"{family} family needs {extent}{alt}")
        params = {**params, extent: radius + offset}
    if family == "explicit":
        return dict(params)
    sizes = {**shape, extent: params[extent]}
    return {**params, **{key: _integer(params.get(key, default), f"graph param {key}")
                         for key, default in sizes.items()}}


def generate(family: str, *, cells: bool = False, **params):
    """Dispatch to a named generator; returns (graph, anchor vertex). With
    ``cells``, to the family's quotient builder instead; returns (graph,
    anchor, cell_size). A missing shape param takes the family's default. An
    unknown family, a family without a quotient, a param the family does not
    list, a missing extent or a non-integer size raises ValueError naming it."""
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {sorted(_FAMILIES)}")
    params = _family_params(family, params)
    builder = _FAMILIES[family][4 if cells else 0]
    if builder is None:
        raise ValueError(f"family {family!r} has no quotient")
    return builder(**params)


# ---------------------------------------------------------------------------
# Plain-dict form
# ---------------------------------------------------------------------------

def graph_to_dict(g: WeightedGraph) -> dict:
    """Plain-dict form: edges listed once per unordered pair."""
    row = csr_rows(g.indptr)
    once = g.indices >= row
    edges = [
        [int(x), int(y), float(w)]
        for x, y, w in zip(row[once], g.indices[once], g.weights[once])
    ]
    return {"n": g.n, "edges": edges, "mu": [float(m) for m in g.mu]}


def graph_from_dict(data: dict) -> WeightedGraph:
    """Inverse of :func:`graph_to_dict`; symmetrizes and validates."""
    try:
        n = _integer(data["n"], "graph n")
        edges = [(e[0], e[1], e[2]) for e in data["edges"]]
        mu = data.get("mu", 1.0)
    except (KeyError, IndexError, TypeError) as exc:
        raise ValueError(f"malformed graph dict: {exc}") from exc
    return WeightedGraph.from_edges(n, edges, mu=mu)
