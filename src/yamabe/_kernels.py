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
"""

import numpy as np

# recorded next to every benchmark result
BACKEND = "numpy"


def p_laplacian_kernel(indptr, indices, weights, mu, f, p, rows):
    d = f[indices] - f[rows]
    flow = weights * np.sign(d) * np.abs(d) ** (p - 1.0)
    return np.bincount(rows, weights=flow, minlength=mu.shape[0]) / mu


def grad_power_kernel(indptr, indices, weights, mu, f, p, rows):
    d = f[indices] - f[rows]
    contrib = weights * np.abs(d) ** p
    return np.bincount(rows, weights=contrib, minlength=mu.shape[0]) / (2.0 * mu)


def edge_energy_kernel(indptr, indices, weights, mu, f, p, rows):
    d = f[indices] - f[rows]
    contrib = weights * np.abs(d) ** p
    once = indices >= rows  # each unordered pair once; loops once (zero term)
    edge_sum = float(contrib[once].sum())
    power = np.bincount(rows, weights=contrib, minlength=mu.shape[0]) / (2.0 * mu)
    vertex_sum = float((mu * power).sum())
    return edge_sum, vertex_sum
