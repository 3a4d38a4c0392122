"""Constrained minimization of the p-Dirichlet energy and solution rescaling.

The minimizer walks the constraint set K(u) = 1 with a preconditioned
residual descent: the step direction is the Euler-Lagrange residual
r = J'(u) - lam K'(u) with lam = p J(u) / alpha, scaled by the inverse
diagonal curvature of J, which keeps it a guaranteed descent direction
for the merit function M(u) = J(u) / K(u)^{p/alpha} while absorbing the
stiffness of rapidly growing h.  After every trial step the iterate is
clamped to the nonnegative cone and renormalized back onto the constraint
set, which is exact because K is alpha-homogeneous on nonnegative
functions.  Steps are accepted on an Armijo decrease of the energy or,
once energy decreases drop below floating-point resolution, on a
safeguarded decrease of the residual itself, so stationarity can be
driven well past the precision at which J flattens out.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._kernels import grad_power_kernel
from .errors import (
    ConsistencyError,
    DegenerateConstraintError,
    InfeasibleConstraintError,
    TruncationError,
)
from .functionals import (
    ProblemSpec,
    _check_spec,
    _Gprime_field,
    constraint_K,
    energy_J,
    J_gradient,
)
from .graph import (
    WeightedGraph,
    as_vertex_function,
    graph_distance,
    integrate,
)

__all__ = [
    "SolveOptions",
    "MinimizeTrace",
    "SolveResult",
    "TruncationChoice",
    "minimize_constrained",
    "lagrange_multiplier",
    "rescale_solution",
    "solve",
    "choose_truncation_radius",
    "k_tail_bound",
]


# Line-search constants: the first trial step (natural for the
# curvature-scaled direction), the backtracking factor, the Armijo
# sufficient-decrease fraction and the smallest step tried before the
# search counts as stagnated.
_STEP_INIT = 1.0
_BACKTRACK = 0.5
_ARMIJO = 1e-4
_STEP_FLOOR = 1e-12


@dataclass(frozen=True)
class SolveOptions:
    """Tuning knobs for the constrained descent.

    u0 is the first iterate before renormalization; None means a
    distance-Gaussian bump around x0.
    """

    max_iters: int = 20000
    grad_tol: float = 1e-8
    u0: np.ndarray | None = None
    x0: int = 0
    constraint_tol: float = 1e-10

    def __post_init__(self) -> None:
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")
        for name in ("grad_tol", "constraint_tol"):
            val = getattr(self, name)
            if not (val > 0.0 and np.isfinite(val)):
                raise ValueError(f"{name} must be a positive finite number")


@dataclass
class MinimizeTrace:
    """Per-iterate history of an energy descent run."""

    converged: bool
    iters: int
    j_history: np.ndarray
    step_history: np.ndarray
    sup_history: np.ndarray
    residual_history: np.ndarray
    residual_scaled: float
    stagnated: bool = False


@dataclass
class SolveResult:
    """Full output of the solve pipeline.

    u_bar is the constrained minimizer (K(u_bar) = 1), u the rescaled
    solution of the unconstrained equation with multiplier eigen_factor,
    and residual its per-vertex defect (see verify.residual_report).
    """

    u_bar: np.ndarray
    gamma: float
    lam: float
    theta_used: float
    u: np.ndarray
    eigen_factor: float
    residual: np.ndarray
    residual_sup: float
    residual_l2: float
    iters: int
    converged: bool
    positive: bool
    min_u: float
    k_value: float
    eigen_factor_is_unit: bool
    hypotheses: dict = field(repr=False, default_factory=dict)
    trace: MinimizeTrace | None = field(repr=False, default=None)


@dataclass(frozen=True)
class TruncationChoice:
    """A truncation radius together with its certified tail data."""

    radius: int
    tail_value: float
    k_tail_bound: float
    gamma_est: float
    epsilon: float


def _positive_part(u: np.ndarray) -> np.ndarray:
    return np.maximum(u, 0.0)


def _renormalize(g: WeightedGraph, spec: ProblemSpec, v: np.ndarray):
    """Clamp to the nonnegative cone and rescale onto K = 1.

    Returns (u, k_raw) or (None, k_raw) when the clamped function carries
    no constraint mass and cannot be normalized.
    """
    plus = _positive_part(v)
    k_raw = constraint_K(g, spec, plus)
    if not np.isfinite(k_raw) or k_raw <= 0.0:
        return None, k_raw
    u = plus * k_raw ** (-1.0 / spec.alpha)
    return u, k_raw


def _initial_iterate(
    g: WeightedGraph, spec: ProblemSpec, opts: SolveOptions
) -> np.ndarray:
    if opts.u0 is not None:
        v = as_vertex_function(g, opts.u0)
        if not np.any(_positive_part(v) > 0.0):
            raise ValueError("initial iterate u0 has no positive part")
    else:
        if not 0 <= opts.x0 < g.n:
            raise ValueError("x0 out of range")
        dist = graph_distance(g, opts.x0).astype(np.float64)
        spread = max(1.0, float(dist.max()) / 4.0)
        v = np.exp(-((dist / spread) ** 2))
    u, _ = _renormalize(g, spec, v)
    if u is None:
        raise InfeasibleConstraintError(
            "constraint mass is zero on the initial iterate; "
            "g must be positive somewhere the iterate is"
        )
    return u

def _check_sup_bound(g: WeightedGraph, spec: ProblemSpec, u: np.ndarray, j: float):
    # sup |u|^p * min(h mu) <= J(u) must hold for every feasible iterate
    min_hmu = float(np.min(spec.h * g.mu))
    sup = float(np.max(np.abs(u)))
    if min_hmu * sup**spec.p > j * (1.0 + 1e-12) + 1e-300:
        raise ConsistencyError(
            "energy accounting violated: sup bound "
            f"{min_hmu * sup ** spec.p:.17g} exceeds J = {j:.17g}"
        )


def _residual_state(g: WeightedGraph, spec: ProblemSpec, u: np.ndarray, j: float):
    """Euler-Lagrange residual of the constrained problem at a feasible u."""
    w = J_gradient(g, spec, u)
    lam = spec.p * j / spec.alpha
    r = w - lam * _Gprime_field(spec, u)
    return r, lam


def _weighted_degree(g: WeightedGraph) -> np.ndarray:
    return np.bincount(g.rows, weights=g.weights, minlength=g.n)


def _diag_curvature(
    g: WeightedGraph, spec: ProblemSpec, u: np.ndarray, wdeg: np.ndarray
) -> np.ndarray:
    """Diagonal of the coordinate Hessian of J, floored away from zero.

    H_xx = p(p-1) [sum_y w_xy |du|^{p-2} + h(x) mu(x) |u(x)|^{p-2}]; the
    p-Laplacian part degenerates on flat regions for p > 2, so the floor
    keeps the preconditioned direction finite there.
    """
    p = spec.p
    if p == 2.0:
        diag = 2.0 * (wdeg + spec.h * g.mu)
    else:
        edge = 2.0 * g.mu * grad_power_kernel(
            g.indptr, g.indices, g.weights, g.mu, u, p - 2.0, g.rows
        )
        diag = p * (p - 1.0) * (edge + spec.h * g.mu * np.abs(u) ** (p - 2.0))
    floor = 1e-12 * max(float(diag.max()), 1.0)
    return np.maximum(diag, floor)


def _final_residual_estimate(spec: ProblemSpec, lam: float, sup_r: float) -> float:
    """Sup residual the rescaled solution will have, given the EL residual."""
    if spec.p == spec.alpha:
        return sup_r / spec.p
    kappa = (spec.p / (spec.alpha * lam * spec.theta)) ** (1.0 / (spec.p - spec.alpha))
    return kappa ** (spec.p - 1.0) / spec.p * sup_r


def minimize_constrained(
    g: WeightedGraph, spec: ProblemSpec, opts: SolveOptions | None = None
):
    """Minimize J over the set K = 1 intersected with the nonnegative cone.

    Returns (u_bar, gamma, trace) where gamma = J(u_bar) is the attained
    energy level.  Raises InfeasibleConstraintError when the constraint
    set is empty (g identically zero) and ConsistencyError when an
    iterate violates the uniform sup bound, which would mean the energy
    bookkeeping itself is broken.
    """
    if opts is None:
        opts = SolveOptions()
    _check_spec(g, spec)
    if not np.any(spec.g > 0.0):
        raise InfeasibleConstraintError("g vanishes identically; K(u) = 1 is empty")

    u = _initial_iterate(g, spec, opts)
    j = energy_J(g, spec, u)
    _check_sup_bound(g, spec, u, j)
    wdeg = _weighted_degree(g)

    step = _STEP_INIT

    j_hist = [j]
    step_hist: list[float] = []
    sup_hist = [float(np.max(u))]
    r_hist: list[float] = []

    r, lam = _residual_state(g, spec, u, j)
    sup_r = float(np.max(np.abs(r)))
    scaled = sup_r / (1.0 + j)
    r_hist.append(sup_r)

    converged = False
    stagnated = False
    iters = 0
    big = 1e8

    for iters in range(1, opts.max_iters + 1):
        if (
            scaled <= opts.grad_tol
            and _final_residual_estimate(spec, lam, sup_r) <= 10.0 * opts.grad_tol
        ):
            converged = True
            iters -= 1
            break

        d = -(g.mu * r) / _diag_curvature(g, spec, u, wdeg)
        slope = float(np.sum(g.mu * r * d))
        sup_d = float(np.max(np.abs(d)))
        s = min(2.0 * step, 8.0)
        accepted = False
        polish = None
        while s >= _STEP_FLOOR:
            if s * sup_d > big * (1.0 + sup_hist[-1]):
                s *= _BACKTRACK
                continue
            cand, _ = _renormalize(g, spec, u + s * d)
            if cand is None:
                s *= _BACKTRACK
                continue
            j_cand = energy_J(g, spec, cand)
            if j_cand <= j + _ARMIJO * s * slope:
                accepted = True
                break
            # energy decreases below float resolution: fall back to a
            # plain residual decrease, never letting J creep upward
            if j_cand <= j + 1e-12 * (1.0 + abs(j)):
                r_cand, lam_cand = _residual_state(g, spec, cand, j_cand)
                sup_cand = float(np.max(np.abs(r_cand)))
                if sup_cand <= 0.9 * sup_r:
                    accepted = True
                    polish = (r_cand, lam_cand, sup_cand)
                    break
            s *= _BACKTRACK
        if not accepted:
            stagnated = True
            break

        u, j, step = cand, j_cand, s
        _check_sup_bound(g, spec, u, j)
        j_hist.append(j)
        step_hist.append(s)
        sup_hist.append(float(np.max(u)))

        if polish is None:
            r, lam = _residual_state(g, spec, u, j)
            sup_r = float(np.max(np.abs(r)))
        else:
            r, lam, sup_r = polish
        scaled = sup_r / (1.0 + j)
        r_hist.append(sup_r)
    else:
        iters = opts.max_iters

    if stagnated or not converged:
        # a stagnated line search at numerical optimality still counts
        converged = (
            scaled <= opts.grad_tol
            and _final_residual_estimate(spec, lam, sup_r) <= 10.0 * opts.grad_tol
        )

    k_final = constraint_K(g, spec, u)
    if abs(k_final - 1.0) > opts.constraint_tol:
        raise ConsistencyError(
            f"constraint drifted off K = 1: K = {k_final:.17g}"
        )

    trace = MinimizeTrace(
        converged=converged,
        iters=iters,
        j_history=np.asarray(j_hist),
        step_history=np.asarray(step_hist),
        sup_history=np.asarray(sup_hist),
        residual_history=np.asarray(r_hist),
        residual_scaled=scaled,
        stagnated=stagnated,
    )
    return u, j, trace


def lagrange_multiplier(g: WeightedGraph, spec: ProblemSpec, u_bar: np.ndarray) -> float:
    """Multiplier lam with J'(u_bar) = lam K'(u_bar) at a constrained minimizer.

    Computes the duality pairing p J / (alpha theta int g u^alpha) and
    cross-checks it against the closed form p J / alpha valid on K = 1;
    disagreement beyond 1e-8 relative means u_bar is not on the
    constraint set and raises ConsistencyError.
    """
    _check_spec(g, spec)
    u_bar = as_vertex_function(g, u_bar)
    mass = float(integrate(g, spec.g * _positive_part(u_bar) ** spec.alpha))
    denom = spec.alpha * spec.theta * mass
    if denom <= 0.0:
        raise DegenerateConstraintError(
            "constraint derivative vanishes at u_bar; multiplier is undefined"
        )
    j = energy_J(g, spec, u_bar)
    lam_pair = spec.p * j / denom
    lam_simple = spec.p * j / spec.alpha
    if abs(lam_pair - lam_simple) > 1e-8 * max(abs(lam_simple), 1e-300):
        raise ConsistencyError(
            "multiplier mismatch: pairing gives "
            f"{lam_pair:.17g}, constraint form gives {lam_simple:.17g}; "
            "u_bar is off the constraint set"
        )
    if lam_pair <= 0.0:
        raise DegenerateConstraintError("multiplier is not positive")
    return lam_pair


def rescale_solution(spec: ProblemSpec, u_bar: np.ndarray, lam: float):
    """Turn a constrained minimizer into a solution of the target equation.

    For p > alpha the scaling u = kappa u_bar with
    kappa = (p / (alpha lam theta))^{1/(p - alpha)} absorbs the
    multiplier entirely and the eigenvalue factor is 1.  For p = alpha
    no scaling can change the balance and the factor lam theta is
    reported instead.
    """
    u_bar = np.asarray(u_bar, dtype=np.float64)
    if spec.p < spec.alpha:
        raise ValueError("rescaling requires p >= alpha")
    if not (lam > 0.0 and np.isfinite(lam)):
        raise ValueError("multiplier must be positive and finite")
    if spec.p == spec.alpha:
        return u_bar.copy(), lam * spec.theta
    kappa = (spec.p / (spec.alpha * lam * spec.theta)) ** (1.0 / (spec.p - spec.alpha))
    return kappa * u_bar, 1.0


def solve(
    g: WeightedGraph, spec: ProblemSpec, opts: SolveOptions | None = None
) -> SolveResult:
    """Full pipeline: check hypotheses, minimize, extract and absorb the
    multiplier, and certify the rescaled function as a positive solution."""
    from .verify import hypotheses_check, positivity_certificate, residual_report

    if opts is None:
        opts = SolveOptions()
    hyp = hypotheses_check(g, spec)
    u_bar, gamma, trace = minimize_constrained(g, spec, opts)
    lam = lagrange_multiplier(g, spec, u_bar)
    u, eigen_factor = rescale_solution(spec, u_bar, lam)
    report = residual_report(g, spec, u, eigen_factor=eigen_factor)
    cert = positivity_certificate(g, u, p=spec.p)
    converged = (
        trace.converged
        and cert.passed
        and report.residual_sup <= 10.0 * opts.grad_tol
    )
    return SolveResult(
        u_bar=u_bar,
        gamma=gamma,
        lam=lam,
        theta_used=spec.theta,
        u=u,
        eigen_factor=eigen_factor,
        residual=report.residual,
        residual_sup=report.residual_sup,
        residual_l2=report.residual_l2,
        iters=trace.iters,
        converged=converged,
        positive=cert.passed,
        min_u=float(np.min(u)),
        k_value=constraint_K(g, spec, u_bar),
        eigen_factor_is_unit=abs(eigen_factor - 1.0) <= 1e-8,
        hypotheses=hyp,
        trace=trace,
    )


def _tail_values(g: WeightedGraph, spec: ProblemSpec, x0: int) -> np.ndarray:
    """tail(R) for R = 0 .. ecc, with tail(R) = (sum_{d(x) > R} h^-delta mu)^delta."""
    dist = graph_distance(g, x0)
    ecc = int(dist.max())
    shell = np.bincount(dist, weights=spec.h ** (-spec.delta) * g.mu, minlength=ecc + 1)
    # suffix[R] = mass strictly beyond radius R
    suffix = np.concatenate([np.cumsum(shell[::-1])[::-1], [0.0]])
    return suffix[1:] ** spec.delta


def k_tail_bound(
    g: WeightedGraph, spec: ProblemSpec, tail_value: float, gamma_est: float
) -> float:
    """Constraint mass that can hide beyond a radius with the given tail value.

    The bound is monotone in tail_value and vanishes with it, which is
    what makes truncation converge.
    """
    p, alpha, delta, theta = spec.p, spec.alpha, spec.delta, spec.theta
    g_max = float(np.max(spec.g))
    min_h = float(np.min(spec.h))
    if p > alpha:
        const = theta * g_max * min_h ** (-(alpha / (p - alpha) - delta) * (p - alpha) / alpha)
        return const * tail_value ** ((p - alpha) * delta / alpha) * (gamma_est + 1.0) ** (alpha / p)
    min_hmu = float(np.min(spec.h * g.mu))
    c_bd = ((gamma_est + 1.0) / min_hmu) ** (1.0 / p)
    c_gj = min_h ** (-(1.0 / (p - 2.0) - delta)) if p > 2.0 else 1.0
    const = theta * g_max * c_bd ** (p * (p - 2.0) / (p - 1.0)) * c_gj ** ((p - 2.0) / (p - 1.0))
    return const * tail_value ** ((p - 2.0) * delta / (p - 1.0)) * (gamma_est + 1.0) ** (1.0 / (p - 1.0))


def choose_truncation_radius(
    g: WeightedGraph,
    spec: ProblemSpec,
    x0: int,
    epsilon: float,
    r_max: int | None = None,
    gamma_est: float | None = None,
) -> TruncationChoice:
    """Smallest radius whose tail is at most epsilon, with its K-tail bound.

    gamma_est defaults to the energy of the normalized uniform competitor,
    an upper bound for the constrained infimum.  Raises TruncationError,
    carrying the best achieved tail, when no admissible radius exists.
    """
    _check_spec(g, spec)
    if not (epsilon > 0.0 and np.isfinite(epsilon)):
        raise ValueError("epsilon must be a positive finite number")
    if not 0 <= x0 < g.n:
        raise ValueError("x0 out of range")
    tails = _tail_values(g, spec, x0)
    limit = len(tails) - 1 if r_max is None else min(r_max, len(tails) - 1)
    if limit < 0:
        raise ValueError("r_max must be nonnegative")
    radius = None
    for rr in range(limit + 1):
        if tails[rr] <= epsilon:
            radius = rr
            break
    if radius is None:
        raise TruncationError(
            f"no radius up to {limit} achieves tail <= {epsilon:.17g}",
            achieved_tail=float(tails[limit]),
        )
    if gamma_est is None:
        v, _ = _renormalize(g, spec, np.ones(g.n))
        if v is None:
            raise InfeasibleConstraintError(
                "g vanishes identically; no competitor exists"
            )
        gamma_est = energy_J(g, spec, v)
    tail_value = float(tails[radius])
    return TruncationChoice(
        radius=radius,
        tail_value=tail_value,
        k_tail_bound=k_tail_bound(g, spec, tail_value, gamma_est),
        gamma_est=float(gamma_est),
        epsilon=epsilon,
    )
