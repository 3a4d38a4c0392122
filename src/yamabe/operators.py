"""Discrete nonlinear operators: p-Laplacian, p-gradient norm, Dirichlet energy.

For p >= 2 and a vertex function f:

    (Lap_p f)(x)   = (1/mu(x)) sum_{y~x} w_xy |f(y)-f(x)|^{p-2} (f(y)-f(x))
    |grad_p f(x)|  = ((1/(2 mu(x))) sum_{y~x} w_xy |f(y)-f(x)|^p)^{1/p}

and the energy identity

    int_V |grad_p f|^p dmu = sum_{{x,y} in E} w_xy |f(y)-f(x)|^p

(unordered edges, each counted once), which `dirichlet_energy` verifies on
every call by computing both sides from one pass of the fused
``edge_energy_kernel``. Self-loops contribute zero throughout.
For p = 2 the p-Laplacian reduces exactly to the linear mu-Laplacian.

Validation contract: the public functions check ``p`` and coerce and check
``f`` (see ``graph.as_vertex_function``) once, then call a private twin.
``_p_laplacian`` and ``_dirichlet_energy`` take a float p >= 2 and a
validated float64 vertex array as given; only the identity check stays on
every call, because it guards the graph, not the input.
"""

from __future__ import annotations

import math

import numpy as np

from . import _kernels
from .errors import ConsistencyError
from .graph import WeightedGraph, as_vertex_function

_IDENTITY_RTOL = 1e-12


def _check_p(p: float) -> float:
    p = float(p)
    if not math.isfinite(p) or p < 2.0:
        raise ValueError(f"p must be a real number >= 2, got {p}")
    return p


def p_laplacian(g: WeightedGraph, p: float, f) -> np.ndarray:
    """Apply the discrete p-Laplacian to ``f``."""
    return _p_laplacian(g, _check_p(p), as_vertex_function(g, f))


def _p_laplacian(g: WeightedGraph, p: float, f: np.ndarray) -> np.ndarray:
    return _kernels.p_laplacian_kernel(
        g.indptr, g.indices, g.weights, g.mu, f, p, g.rows
    )


def p_gradient_norm(g: WeightedGraph, p: float, f) -> np.ndarray:
    """Vertex-wise p-gradient norm of ``f`` (nonnegative)."""
    p = _check_p(p)
    arr = as_vertex_function(g, f)
    power = _kernels.grad_power_kernel(
        g.indptr, g.indices, g.weights, g.mu, arr, p, g.rows
    )
    return power ** (1.0 / p)


def dirichlet_energy(g: WeightedGraph, p: float, f) -> float:
    """Total p-Dirichlet energy of ``f``.

    One kernel pass computes w_xy |f(y)-f(x)|^p on every CSR slot and sums
    it twice: over the once-counted slots of the unordered edges, and as
    the vertex sum of mu * |grad_p f|^p, which counts both mirrored slots
    of every edge. The two must agree to relative 1e-12 or a
    :class:`ConsistencyError` is raised, so a CSR whose mirrored slots
    disagree (a non-symmetric graph) fails here. Returns the edge-sum
    value.
    """
    return _dirichlet_energy(g, _check_p(p), as_vertex_function(g, f))


def _dirichlet_energy(g: WeightedGraph, p: float, f: np.ndarray) -> float:
    edge_sum, vertex_sum = _kernels.edge_energy_kernel(
        g.indptr, g.indices, g.weights, g.mu, f, p, g.rows
    )
    scale = max(abs(vertex_sum), abs(edge_sum), 1e-300)
    if abs(vertex_sum - edge_sum) > _IDENTITY_RTOL * scale:
        raise ConsistencyError(
            "Dirichlet energy mismatch: vertex sum "
            f"{vertex_sum!r} vs edge sum {edge_sum!r}"
        )
    return edge_sum


def ibp_identity_check(g: WeightedGraph, p: float, f) -> tuple[float, float]:
    """Both sides of the integration-by-parts identity.

    Returns ``(lhs, rhs)`` with lhs = int_V (-f * Lap_p f) dmu and
    rhs = int_V |grad_p f|^p dmu. The two agree in exact arithmetic.
    """
    p = _check_p(p)
    arr = as_vertex_function(g, f)
    lhs = float((g.mu * (-arr) * _p_laplacian(g, p, arr)).sum())
    return lhs, _dirichlet_energy(g, p, arr)
