"""CSR kernels for the hot inner loops, in whole-array numpy.

Kernel semantics (CSR arrays ``indptr``, ``indices``, ``weights``, vertex
measure ``mu``, vertex values ``f``, exponent ``p >= 2``, and ``pairing``,
the graph's edges with the weights of both their slots, i.e.
``WeightedGraph.pairing`` from :func:`yamabe.graph.csr_pairing`):

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

Each kernel works per unordered edge {lo, hi}, of which there are m: it
gathers f at both ends of every edge with one ``take`` over the pairing's
bins, subtracts once, d = f(hi) - f(lo), computes one ``abs`` and one power
per edge, writes the terms of both of the edge's slots with one broadcast
multiply by the pairing's (2, m) weights, and reduces them onto their
vertices with one ``bincount`` over the bins. ``indptr``, ``indices`` and
``weights`` are not read; they stay the first three arguments because
``perfbench/tracer.py`` reads them from every kernel call.

The results are bit-identical to computing every CSR slot on its own:

* the mirror slot's difference f(lo) - f(hi) is exactly -d, so both slots
  see the same |d| and the same powers;
* sign flips are exact, and so is (-w) x = -(w x);
* ``bincount`` adds each bin's entries in input order, and the two halves
  of the bins feed vertex x its lower neighbours in ascending order, then
  its upper ones: CSR slot order whenever each row's columns ascend. A
  loop's extra entry has weight 0.0 and adds a zero, which changes no sum.

The per-edge work runs in place in the calling thread's scratch: one
(2, m) float64 array and two of m, kept while m stays the same
(:func:`_edge_arrays`), 16 bytes per slot of the last graph the thread ran
a kernel on, as when every slot was computed on its own. Fresh
temporaries on every call made solve time depend on the allocator's
history: glibc gives freed heap back to the system above a trim threshold
that only grows when a large block is freed, so once a descent's
edge-sized temporaries outgrow it, every kernel call faults their pages in
again. Solves on Z^2 balls of radius 60-120 built by
``lattice_ball`` took about 12,500 page faults and 1.4x the time each that
way (2-core Xeon, glibc 2.36, numpy 2.4).
"""

import threading

import numpy as np

# recorded next to every benchmark result
BACKEND = "numpy"

_scratch = threading.local()


def _edge_arrays(f, bins, m):
    """The calling thread's scratch for m edges, with ``f`` gathered and
    differenced: ``(terms, flat, mirror, once, d, size)``.

    ``terms`` (2, m) holds f(hi), then f(lo), for a kernel to overwrite
    with the terms of the edges' two slots; ``flat`` is the same 2m
    entries in ``bins`` order, ``mirror`` and ``once`` its two rows. ``d``
    is f(hi) - f(lo) and ``size`` is |d|. Each thread has its own, so
    concurrent kernels never share it; a kernel's result never aliases it.
    ``bins`` are vertex ids, so ``take``'s clipping never acts; it only
    spares the checked mode's extra buffer.
    """
    arrays = getattr(_scratch, "arrays", None)
    if arrays is None or arrays[4].shape[0] != m:
        terms = np.empty((2, m))
        arrays = _scratch.arrays = (terms, terms.reshape(-1), terms[0], terms[1], np.empty(m), np.empty(m))
    _, flat, hi, lo, d, size = arrays
    f.take(bins, out=flat, mode="clip")
    np.subtract(hi, lo, out=d)
    np.abs(d, out=size)
    return arrays


def _slot_terms(f, p, pairing):
    """The scratch with w |f(y) - f(x)|^p on both slots of every edge in ``terms``."""
    bins, side = pairing
    arrays = _edge_arrays(f, bins, side.shape[1])
    power = arrays[5]
    power **= p
    np.multiply(side, power, out=arrays[0])
    return arrays


def p_laplacian_kernel(indptr, indices, weights, mu, f, p, pairing):
    bins, side = pairing
    terms, flat, mirror, _, d, flow = _edge_arrays(f, bins, side.shape[1])
    # w * sign(d) * |d|^(p-1) on the slot (lo, hi); its mirror's difference is -d
    flow **= p - 1.0
    np.copysign(flow, d, out=flow)
    np.multiply(side, flow, out=terms)
    np.negative(mirror, out=mirror)
    return np.bincount(bins, weights=flat, minlength=mu.shape[0]) / mu


def grad_power_kernel(indptr, indices, weights, mu, f, p, pairing):
    flat = _slot_terms(f, p, pairing)[1]
    return np.bincount(pairing[0], weights=flat, minlength=mu.shape[0]) / (2.0 * mu)


def edge_energy_kernel(indptr, indices, weights, mu, f, p, pairing):
    _, flat, _, once, _, _ = _slot_terms(f, p, pairing)
    edge_sum = float(once.sum())  # each unordered pair once; loops once (zero term)
    power = np.bincount(pairing[0], weights=flat, minlength=mu.shape[0]) / (2.0 * mu)
    vertex_sum = float((mu * power).sum())
    return edge_sum, vertex_sum
