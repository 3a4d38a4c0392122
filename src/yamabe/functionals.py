"""Variational objects: energy J, cutoff nonlinearity G, constraint K.

For exponents 2 < alpha <= p, coefficients h > 0 and g >= 0, and scale
theta > 0:

    J(u) = int_V (|grad_p u|^p + h |u|^p) dmu        (= ||u||_H^p)
    G(x, s) = g(x) theta s^alpha  for s >= 0, else 0
    K(u) = int_V G(x, u(x)) dmu

K is one-sided: negative parts of u never contribute, which is what forces
minimizers of J on {K = 1} to be nonnegative. Gradients here are densities
with respect to mu: `J_gradient` returns w with dJ(u)[v] = int_V w v dmu.

Validation contract: the public functions check that the spec lives on the
graph and coerce and check each vertex function once (see
``graph.as_vertex_function``), then compute with the private twins
``_p_laplacian``, ``_dirichlet_energy`` and ``_integrate``, which trust a
validated float64 vertex array. So one solver iterate is checked once per
public call instead of once per layer it passes through. The descent
(``solver.minimize_constrained``) checks its start in ``energy_J``, its
first iterate in ``J_gradient`` and its last in ``constraint_K``.  Its
trials' energies run in ``energy_J`` with the h terms its
``solver._Evaluator`` makes once, checked only where J is not finite; its
other evaluations (constraint mass, residual, curvature) run in the
evaluator, which checks nothing and gives these functions' bits at u >= 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import WeightedGraph, _as_float, _integrate, _number, as_vertex_function, integrate
from .operators import _check_p, _dirichlet_energy, _p_laplacian


_TINY, _EPS = np.finfo(np.float64).tiny, np.finfo(np.float64).eps


@dataclass(frozen=True)
class ProblemSpec:
    """Instance data for the constrained minimization.

    ``p >= 2`` and ``2 < alpha <= p`` are the exponents, ``delta`` the
    integrability exponent of 1/h (0 < delta < 1/(p-2); any delta > 0 when
    p = 2), ``theta > 0`` the constraint scale, and ``h``/``g`` per-vertex
    coefficient arrays. Construction only coerces and checks types and
    shapes (a boolean or a string raises ValueError naming the field);
    the semantic hypotheses are checked by ``verify.hypotheses_check``,
    which every solve runs first.
    """

    p: float
    alpha: float
    delta: float
    h: np.ndarray
    g: np.ndarray
    theta: float = 1.0

    def __post_init__(self):
        for name in ("p", "alpha", "delta", "theta"):
            object.__setattr__(self, name, _number(getattr(self, name), name))
        h = _as_float(self.h, "h")
        g = _as_float(self.g, "g")
        if h.ndim != 1 or g.ndim != 1:
            raise ValueError("h and g must be one-dimensional vertex arrays")
        if h.shape != g.shape:
            raise ValueError("h and g must live on the same vertex set")
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "g", g)

    @property
    def n(self) -> int:
        return self.h.shape[0]

    def restrict(self, new_to_old: np.ndarray) -> "ProblemSpec":
        """Same exponents with coefficients restricted to a subgraph (indexing copies them)."""
        return ProblemSpec(
            p=self.p,
            alpha=self.alpha,
            delta=self.delta,
            theta=self.theta,
            h=self.h[new_to_old],
            g=self.g[new_to_old],
        )


def _check_spec(g: WeightedGraph, spec: ProblemSpec):
    if spec.n != g.n:
        raise ValueError(
            f"problem coefficients live on {spec.n} vertices, graph has {g.n}"
        )


def energy_J(g: WeightedGraph, spec: ProblemSpec, u, *, _h_terms=None) -> float:
    """Energy J(u) = int_V (|grad_p u|^p + h|u|^p) dmu. Nonnegative.

    A |u(x)|^p below the smallest normal float64 keeps none or few of its
    bits, so a large h mu can multiply a zero: the h term is then summed
    again as ((h mu)^(1/p) |u|)^p, but only where that loss, at most
    n max(h mu) times the smallest normal (``_underflow_bound``), could
    reach J's last bit.

    ``_h_terms``, (h mu, its bound) made once per solve, is for the
    descent's trials, float64 and >= 0 (``solver._Evaluator.energy``):
    then u is checked only where J is not finite, as any infinite or NaN
    entry makes it, so such a u raises the same ValueError.
    """
    if _h_terms is None:
        _check_spec(g, spec)
        _check_p(spec.p)
        u = as_vertex_function(g, u)
        h_mu = g.mu * spec.h
        bound, abs_u = _underflow_bound(g.n, h_mu), np.abs(u)
    else:
        (h_mu, bound), abs_u = _h_terms, u
    edge_term = _dirichlet_energy(g, spec.p, u)
    j = edge_term + float((h_mu * abs_u ** spec.p).sum())
    if bound > _EPS * j:
        j = edge_term + float(((h_mu ** (1.0 / spec.p) * abs_u) ** spec.p).sum())
    if _h_terms is not None and not math.isfinite(j):
        as_vertex_function(g, u)
    return j


def _underflow_bound(n: int, h_mu: np.ndarray) -> float:
    """n max(h mu) times the smallest normal: what underflow can take from J's h term."""
    return n * _TINY * float(h_mu.max())


def h_norm(g: WeightedGraph, spec: ProblemSpec, u) -> float:
    """Natural energy norm ||u||_H = J(u)^(1/p)."""
    return energy_J(g, spec, u) ** (1.0 / spec.p)


def nonlinearity_G(spec: ProblemSpec, x: int, s: float) -> tuple[float, float]:
    """Value and s-derivative of the cutoff nonlinearity at vertex ``x``.

    G(x, s) = g(x) theta s^alpha for s >= 0 and 0 for s < 0; the derivative
    is alpha g(x) theta s^(alpha-1) on s >= 0 and 0 below, continuous at 0
    because alpha > 2.
    """
    if not 0 <= x < spec.n:
        raise ValueError(f"vertex {x} out of range")
    s = float(s)
    if s <= 0.0:
        return 0.0, 0.0
    gx = spec.g[x] * spec.theta
    return gx * s ** spec.alpha, spec.alpha * gx * s ** (spec.alpha - 1.0)


def _G_field(spec: ProblemSpec, u: np.ndarray) -> np.ndarray:
    up = np.maximum(u, 0.0)
    return spec.theta * spec.g * up ** spec.alpha


def _Gprime_field(spec: ProblemSpec, u: np.ndarray) -> np.ndarray:
    up = np.maximum(u, 0.0)
    return spec.alpha * spec.theta * spec.g * up ** (spec.alpha - 1.0)


def constraint_K(g: WeightedGraph, spec: ProblemSpec, u) -> float:
    """Constraint functional K(u) = int_V G(x, u) dmu >= 0."""
    _check_spec(g, spec)
    return _integrate(g, _G_field(spec, as_vertex_function(g, u)))


def K_derivative_action(g: WeightedGraph, spec: ProblemSpec, u, v) -> float:
    """Derivative of K at ``u`` applied to the direction ``v``.

    K'(u)(v) = int_V G'(x, u(x)) v(x) dmu; linear in v.
    """
    _check_spec(g, spec)
    arr = as_vertex_function(g, u)
    direction = as_vertex_function(g, v)
    return _integrate(g, _Gprime_field(spec, arr) * direction)


def J_gradient(g: WeightedGraph, spec: ProblemSpec, u) -> np.ndarray:
    """Density w of the derivative of J: dJ(u)[v] = int_V w v dmu.

    w(x) = -p Lap_p u(x) + p h(x) |u(x)|^{p-2} u(x).
    """
    _check_spec(g, spec)
    p = _check_p(spec.p)
    u = as_vertex_function(g, u)
    lap = _p_laplacian(g, p, u)
    h_part = spec.h * np.sign(u) * np.abs(u) ** (p - 1.0)
    return p * (h_part - lap)


# ---------------------------------------------------------------------------
# Lipschitz estimate for K'
# ---------------------------------------------------------------------------

def _embedding_constant(g: WeightedGraph, spec: ProblemSpec) -> float:
    """Constant C with int |v||xi| dmu <= C ||v||_H ||xi||_H.

    For p > 2 this chains the pointwise bound h^{-1/(p-2)} <=
    (min h)^{-(1/(p-2)-delta)} h^{-delta} with the Hoelder embedding of
    L^{p/(p-1)}; for p = 2 it is Cauchy-Schwarz against min h.
    """
    p = spec.p
    min_h = float(np.min(spec.h))
    if p == 2.0:
        return 1.0 / min_h
    c_gj = min_h ** (-(1.0 / (p - 2.0) - spec.delta))
    h_delta_integral = integrate(g, spec.h ** (-spec.delta))
    return (c_gj * h_delta_integral) ** ((p - 2.0) / p) * min_h ** (-1.0 / p)


def kprime_lipschitz_probe(
    g: WeightedGraph,
    spec: ProblemSpec,
    u1,
    u2,
    xi,
    cap: float | None = None,
) -> tuple[float, float]:
    """Probe the Lipschitz bound for K' on a sup-norm ball.

    Returns ``(lhs, rhs)`` where lhs = |(K'(u1) - K'(u2)) xi| and rhs is
    the explicit constant-chain bound C ||xi||_H ||u1 - u2||_H valid for
    ||u1||_inf, ||u2||_inf <= cap. The default cap is the sup bound obeyed
    by any energy-sublevel function, ((max(J(u1), J(u2)) + 1)/min h mu)^{1/p},
    which the arguments satisfy automatically.
    """
    _check_spec(g, spec)
    a1 = as_vertex_function(g, u1)
    a2 = as_vertex_function(g, u2)
    direction = as_vertex_function(g, xi)
    _check_p(spec.p)

    j1 = energy_J(g, spec, a1)
    j2 = energy_J(g, spec, a2)
    if cap is None:
        min_hmu = float(np.min(spec.h * g.mu))
        cap = ((max(j1, j2) + 1.0) / min_hmu) ** (1.0 / spec.p)
    cap = float(cap)
    sup1 = float(np.max(np.abs(a1)))
    sup2 = float(np.max(np.abs(a2)))
    if sup1 > cap or sup2 > cap:
        raise ValueError(
            f"sup norms ({sup1:.3g}, {sup2:.3g}) exceed the cap {cap:.3g}"
        )

    lhs = abs(
        K_derivative_action(g, spec, a1, direction)
        - K_derivative_action(g, spec, a2, direction)
    )

    alpha, theta = spec.alpha, spec.theta
    g_max = float(np.max(spec.g))
    # |G'(x,s1) - G'(x,s2)| <= alpha theta g_max (alpha-1) |s1-s2| (2 cap^{alpha-2})
    c_lip = 2.0 * alpha * (alpha - 1.0) * theta * g_max * cap ** (alpha - 2.0)
    c_emb = _embedding_constant(g, spec)
    rhs = c_lip * c_emb * h_norm(g, spec, direction) * h_norm(g, spec, a1 - a2)
    return lhs, rhs
