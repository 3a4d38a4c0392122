"""CSR kernels for the hot inner loops, in whole-array numpy.

Kernel semantics (CSR arrays ``indptr``, ``indices``, ``weights``, vertex
measure ``mu``, vertex values ``f``, exponent ``p >= 2``, and ``pairing``,
the graph's edges with one weight each, 0.0 on a self-loop, i.e.
``WeightedGraph.pairing`` from :func:`yamabe.graph.csr_pairing`):

* ``p_laplacian``: (1/mu(x)) * sum_{y~x} w_xy |f(y)-f(x)|^{p-2} (f(y)-f(x)),
  with |t|^{p-2} t evaluated as sign(t)|t|^{p-1} so t = 0 never raises 0**0.
* ``grad_power``: (1/(2 mu(x))) * sum_{y~x} w_xy |f(y)-f(x)|^p, i.e. the
  p-th power of the p-gradient norm at each vertex.
* ``edge_energy``: one sum, over unordered edges {x,y} (each counted once)
  of w_xy |f(y)-f(x)|^p: the right-hand side of the energy identity.

Each kernel works per unordered edge {lo, hi}, of which there are m: it
gathers f at both ends of every edge with one ``take`` over the pairing's
bins, subtracts once, d = f(hi) - f(lo), computes one ``abs`` (the
gather, :func:`_gather`), then one power and one multiply by the edge's
weight per edge, writes the term of the slot (lo, hi) and its mirror's as
one (2, m) array, and reduces them onto their vertices with one
``bincount`` over the bins. ``indptr``, ``indices``, ``weights`` and, in
``edge_energy``, ``mu`` are not read; they stay arguments because
``perfbench/tracer.py`` reads the first three from every kernel call.

One gather serves every kernel call on the array the thread holds
(:func:`hold`). Only the solver holds: its descent hands over its start and
each trial it evaluates, and ``solve`` its rescaled u for the residual
report; it writes to none and releases the hold on every exit, a raised
error included. So the energy of a trial, then the gradient and the
curvature at the accepted one share one gather. Every other array is
gathered on every call, so no caller's array is served stale differences.
Each kernel writes its power of |d| into the row of its edge terms,
``np.power(size, e, out=once)``, and finishes the terms there, so ``d``
and |d| survive the call; ``np.power`` gives the bits of ``**`` at the
solver's exponents, which ``tests/test_kernels.py`` checks.

The results are bit-identical to computing every CSR slot on its own:

* the graph's builder has checked that each edge's two slots carry the
  same weight, bit for bit, so one weight serves both;
* the mirror slot's difference f(lo) - f(hi) is exactly -d, so both slots
  see the same |d| and the same powers, and sign flips are exact;
* ``bincount`` adds each bin's entries in input order, and the two halves
  of the bins feed vertex x its lower neighbours in ascending order, then
  its upper ones: CSR slot order, since each row's columns ascend.

``edge_energy_rows`` is ``edge_energy`` on each row of a block of vertex
functions. It gathers the block's edge ends with one ``take(bins, axis=1)``,
then runs the kernel's steps in its order on C-contiguous (rows, m) arrays:
the exact difference, ``abs`` and weight multiply, the power in the loop a
contiguous row runs, and a sum along the contiguous last axis, the same
pairwise sum over each row as over that row alone; so each row gets the
kernel's bits. Sub-blocks of at most ``values // m`` rows (one row when m
exceeds ``values``) keep its arrays near ``2 * values`` floats.

A loop's weight is 0.0, so its terms are zeros, which change no sum. On
its own slot a loop's difference is 0, which gives zero terms too, except
in ``grad_power`` at exponent 0 (the curvature at p = 2), where
|0|^0 = 1 would count the loop's weight: with weight 0.0 that diagonal
is J's exact Hessian.

The per-edge work runs in place in the calling thread's scratch: a
(2, m) float64 array and two of m (d and |d|), views of one buffer that
only grows (:func:`_edge_arrays`), 16 bytes per slot of the largest graph
the thread has run a kernel on, so a solve's orbit quotient and its full
graph share it. Fresh temporaries on every call made solve time depend on the
allocator's history: glibc gives freed heap back to the system above a
trim threshold that only grows when a large block is freed, so once a
descent's edge-sized temporaries outgrow it, every kernel call faults
their pages in again. Solves on Z^2 balls of radius 60-120 built by
``lattice_ball`` took about 12,500 page faults and 1.4x the time each that
way (2-core Xeon, glibc 2.36, numpy 2.4). A row of its own for the power
(20 bytes per slot) made the three kernels about 8% slower per iterate on
the same balls and host.
"""

import threading

import numpy as np

# recorded next to every benchmark result
BACKEND = "numpy"

_scratch = threading.local()


def hold(f):
    """Let the calling thread's kernels reuse their gather of ``f``, which must
    not change, until the next ``hold``; ``hold(None)`` releases it."""
    _scratch.held, _scratch.source = f, None


def _gather(f, bins, flat, hi, lo, d, size):
    """f at both ends of every edge into ``flat`` (``hi`` and ``lo`` its two
    rows), then d = f(hi) - f(lo) and |d|: one iterate's one gather."""
    f.take(bins, out=flat, mode="clip")
    np.subtract(hi, lo, out=d)
    np.abs(d, out=size)


def _edge_arrays(f, bins, m):
    """The calling thread's scratch for m edges, with ``f`` gathered and
    differenced: ``(terms, flat, mirror, once, d, size)``, views of a
    buffer replaced only by a larger one.

    ``terms`` (2, m) is where the gather puts f(hi), then f(lo), and where
    a kernel writes the terms of the edges' two slots; ``flat`` is the same
    2m entries in ``bins`` order, ``mirror`` and ``once`` its two rows.
    ``d`` is f(hi) - f(lo) and ``size`` is |d|; no kernel writes to them, so
    they outlive the call, and a call on the held ``f`` (:func:`hold`) with
    the ``bins`` of its last gather skips the gather. Each thread has its
    own scratch, so concurrent kernels never share it; a kernel's result
    never aliases it. ``bins`` are vertex ids, so ``take``'s clipping never
    acts; it only spares the checked mode's extra buffer.
    """
    arrays = getattr(_scratch, "arrays", None)
    if arrays is None or arrays[4].shape[0] != m:
        buffer = getattr(_scratch, "buffer", None)
        if buffer is None or buffer.shape[0] < 4 * m:
            buffer = _scratch.buffer = np.empty(4 * m)
        flat, d, size = np.split(buffer[: 4 * m], [2 * m, 3 * m])
        terms = flat.reshape(2, m)
        arrays = (terms, flat, terms[0], terms[1], d, size)
        _scratch.arrays, _scratch.source = arrays, None
    source = _scratch.source
    if source is None or source[0] is not f or source[1] is not bins:
        _gather(f, bins, *arrays[1:6])
        _scratch.source = (f, bins) if f is getattr(_scratch, "held", None) else None
    return arrays


def _edge_terms(f, p, pairing):
    """The scratch with w |f(hi) - f(lo)|^p, each edge's one term, in ``once``."""
    bins, w = pairing
    arrays = _edge_arrays(f, bins, w.shape[0])
    once = np.power(arrays[5], p, out=arrays[3])
    np.multiply(w, once, out=once)
    return arrays


def p_laplacian_kernel(indptr, indices, weights, mu, f, p, pairing):
    bins, w = pairing
    _, flat, mirror, once, d, size = _edge_arrays(f, bins, w.shape[0])
    # w * sign(d) * |d|^(p-1) on the slot (lo, hi); its mirror's difference is -d
    np.power(size, p - 1.0, out=once)
    np.copysign(once, d, out=once)
    np.multiply(w, once, out=once)
    np.negative(once, out=mirror)
    return np.bincount(bins, weights=flat, minlength=mu.shape[0]) / mu


def grad_power_kernel(indptr, indices, weights, mu, f, p, pairing):
    _, flat, mirror, once, _, _ = _edge_terms(f, p, pairing)
    mirror[:] = once
    return np.bincount(pairing[0], weights=flat, minlength=mu.shape[0]) / (2.0 * mu)


def edge_energy_kernel(indptr, indices, weights, mu, f, p, pairing):
    return float(_edge_terms(f, p, pairing)[3].sum())  # each unordered pair once


def edge_energy_rows(f, p, pairing, values):
    """``edge_energy_kernel`` on each row of the 2-D block ``f``, as one
    array, in sub-blocks of at most ``values // m`` rows."""
    bins, w = pairing
    m = w.shape[0]
    energy = np.empty(f.shape[0])
    step = max(1, values // max(m, 1))
    for k in range(0, f.shape[0], step):
        ends = f[k : k + step].take(bins, axis=1)
        d = np.subtract(ends[:, :m], ends[:, m:])
        np.abs(d, out=d)
        np.power(d, p, out=d)
        np.multiply(w, d, out=d)
        d.sum(axis=1, out=energy[k : k + step])
    return energy
