"""CSR kernels for the hot inner loops, in whole-array numpy.

Kernel semantics (CSR arrays ``indptr``, ``indices``, ``weights``, vertex
measure ``mu``, vertex values ``f``, exponent ``p >= 2``, and ``rows``, the
source vertex of every CSR slot, i.e. ``WeightedGraph.rows``):

* ``p_laplacian``: (1/mu(x)) * sum_{y~x} w_xy |f(y)-f(x)|^{p-2} (f(y)-f(x)),
  with |t|^{p-2} t evaluated as sign(t)|t|^{p-1} so t = 0 never raises 0**0.
* ``grad_power``: (1/(2 mu(x))) * sum_{y~x} w_xy |f(y)-f(x)|^p, i.e. the
  p-th power of the p-gradient norm at each vertex.
* ``edge_energy``: both sides of the energy identity, ``(edge_sum,
  vertex_sum)``. edge_sum is the sum over unordered edges {x,y} (each
  counted once, loops included) of w_xy |f(y)-f(x)|^p; vertex_sum is
  sum_x mu(x) * grad_power(x), which counts every slot, mirrored ones
  included. Both come from one |du|^p array, so they agree to rounding
  only when each edge's two slots carry the same weight.

Each kernel gathers one difference per CSR slot, computes one power per
slot, and reduces the slots of every vertex row with ``bincount`` (or one
``sum`` over the unordered edges). ``indptr`` is not read; it stays the
first argument because ``perfbench/tracer.py`` reads ``(indptr, indices,
weights)`` from the first three arguments of every kernel call.

The per-slot work runs in place in two float64 arrays of nnz slots, which
each thread keeps while nnz stays the same (:func:`_slot_arrays`); they
hold 16 bytes per slot of the last graph the thread ran a kernel on. Fresh
temporaries on every call made solve time depend on the allocator's
history: glibc gives freed heap back to the system above a trim threshold
that only grows when a large block is freed, so once a descent's
nnz-sized temporaries outgrow it, every kernel call faults their pages in
again. Solves on Z^2 balls of radius 60-120 built by ``lattice_ball`` took
about 12,500 page faults and 1.4x the time each that way (2-core Xeon,
glibc 2.36, numpy 2.4). The arithmetic is the same operation for
operation, so the results are bit-identical.
"""

import threading

import numpy as np

# recorded next to every benchmark result
BACKEND = "numpy"

_scratch = threading.local()


def _slot_arrays(f, indices, rows):
    """``f[indices]`` and ``f[rows]``, written into the calling thread's two slot arrays.

    Each thread has its own pair, so concurrent kernels never share one; a
    kernel's result never aliases them. ``indices`` and ``rows`` are vertex
    ids of a valid CSR, so ``take``'s clipping never acts; it only spares
    the checked mode's extra buffer.
    """
    nnz = indices.shape[0]
    pair = getattr(_scratch, "pair", None)
    if pair is None or pair[0].shape[0] != nnz:
        pair = _scratch.pair = (np.empty(nnz), np.empty(nnz))
    f.take(indices, out=pair[0], mode="clip")
    f.take(rows, out=pair[1], mode="clip")
    return pair


def _slot_power(indices, weights, f, p, rows):
    """w_xy |f(y) - f(x)|^p on every CSR slot, in the first slot array."""
    contrib, other = _slot_arrays(f, indices, rows)
    contrib -= other
    np.abs(contrib, out=contrib)
    contrib **= p
    contrib *= weights
    return contrib


def p_laplacian_kernel(indptr, indices, weights, mu, f, p, rows):
    d, flow = _slot_arrays(f, indices, rows)
    d -= flow
    # weights * sign(d) * |d|^(p-1): the sign is exact, so it can come last
    np.abs(d, out=flow)
    flow **= p - 1.0
    flow *= weights
    np.copysign(flow, d, out=flow)
    return np.bincount(rows, weights=flow, minlength=mu.shape[0]) / mu


def grad_power_kernel(indptr, indices, weights, mu, f, p, rows):
    contrib = _slot_power(indices, weights, f, p, rows)
    return np.bincount(rows, weights=contrib, minlength=mu.shape[0]) / (2.0 * mu)


def edge_energy_kernel(indptr, indices, weights, mu, f, p, rows):
    contrib = _slot_power(indices, weights, f, p, rows)
    once = indices >= rows  # each unordered pair once; loops once (zero term)
    edge_sum = float(contrib[once].sum())
    power = np.bincount(rows, weights=contrib, minlength=mu.shape[0]) / (2.0 * mu)
    vertex_sum = float((mu * power).sum())
    return edge_sum, vertex_sum
