"""CSR kernels for the hot inner loops, in whole-array numpy.

Kernel semantics (CSR arrays ``indptr``, ``indices``, ``weights``, vertex
measure ``mu``, vertex values ``f``, exponent ``p >= 2``):

* ``p_laplacian``: (1/mu(x)) * sum_{y~x} w_xy |f(y)-f(x)|^{p-2} (f(y)-f(x)),
  with |t|^{p-2} t evaluated as sign(t)|t|^{p-1} so t = 0 never raises 0**0.
* ``grad_power``: (1/(2 mu(x))) * sum_{y~x} w_xy |f(y)-f(x)|^p, i.e. the
  p-th power of the p-gradient norm at each vertex.
* ``edge_energy``: sum over unordered edges {x,y} (each counted once, loops
  included) of w_xy |f(y)-f(x)|^p.

Each kernel gathers one difference per CSR slot and reduces the slots of
every vertex row with ``bincount`` (or one ``sum`` over the unordered edges).
"""

import numpy as np

from .graph import csr_rows

# recorded next to every benchmark result
BACKEND = "numpy"


def p_laplacian_kernel(indptr, indices, weights, mu, f, p):
    n = mu.shape[0]
    row = csr_rows(indptr)
    d = f[indices] - f[row]
    flow = weights * np.sign(d) * np.abs(d) ** (p - 1.0)
    return np.bincount(row, weights=flow, minlength=n) / mu


def grad_power_kernel(indptr, indices, weights, mu, f, p):
    n = mu.shape[0]
    row = csr_rows(indptr)
    d = f[indices] - f[row]
    contrib = weights * np.abs(d) ** p
    return np.bincount(row, weights=contrib, minlength=n) / (2.0 * mu)


def edge_energy_kernel(indptr, indices, weights, f, p):
    row = csr_rows(indptr)
    once = indices >= row  # each unordered pair once; loops once (zero term)
    d = f[indices[once]] - f[row[once]]
    return float(np.sum(weights[once] * np.abs(d) ** p))
