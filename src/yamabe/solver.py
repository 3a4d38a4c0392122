"""Constrained minimization of the p-Dirichlet energy and solution rescaling.

The minimizer walks the constraint set K(u) = 1 with a preconditioned
residual descent: the step direction is the Euler-Lagrange residual
r = J'(u) - lam K'(u) with lam = p J(u) / alpha, scaled by the inverse
of a positive diagonal curvature, which keeps it a guaranteed descent
direction for the merit function M(u) = J(u) / K(u)^{p/alpha} while
absorbing the stiffness of rapidly growing h.  The diagonal is J's for
alpha < p and the Lagrangian's, J'' - lam K'', for alpha = p, where the
constraint's curvature cancels J's h-term (see _Evaluator.curvature).  After
every trial step the iterate is clamped to the nonnegative cone and
renormalized back onto the constraint set, which is exact because K is
alpha-homogeneous on nonnegative functions.  Steps are accepted on an Armijo decrease of the energy or,
once energy decreases drop below floating-point resolution, on a
safeguarded decrease of the residual itself, so stationarity can be
driven well past the precision at which J flattens out.

Each line search starts at the step the previous one carried over and
halves it until a step is accepted.  After an Armijo accept that lowers
J by more than its float resolution, the step is rescaled with the 1-D
quadratic model through the accepted trial (Nocedal & Wright, Numerical
Optimization, sec. 3.5).  With the Armijo ratio
q = (J - J_cand) / (s |slope|), the factor is 2 when q >= 3/4 and
otherwise 1 / (2 (1 - q)), the model's minimizer, which lies in
(1/2, 2).  The result is rounded to the nearest
power of 2^(1/8) and capped at _STEP_MAX; on this lattice, rounding noise
cannot change the step, so a relabelled graph takes the same steps.
After a residual-fallback accept the step is carried over unchanged.

One evaluator per solve (``_Evaluator``) computes each trial's constraint
mass, the residual and the curvature, with their coefficient products made
once, and checks nothing.  The checks run on the public path: every
trial's energy goes through ``energy_J``, whose input check
(``graph.as_vertex_function``) runs on it, the first residual through
``J_gradient``; the sup bound is checked at every accepted iterate, and
K = 1 at the last one by ``constraint_K``.  ``solve`` evaluates nothing more:
that K and the last J give the multiplier lam = p J / (alpha K).

The descent hands its start and each trial it evaluates to the kernels
(``_kernels.hold``), so they gather its edge differences once: the
trial's energy does it, and the gradient and the curvature at an accepted
trial reuse them; ``solve`` hands over the rescaled u for
``residual_report``'s two kernels.  Nothing else holds, and both release
the hold on every exit, a raised error included.
A radial problem on a lattice or tree ball runs its descent on the ball's
orbit quotient (see ``solve``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import ClassVar

import numpy as np

from ._kernels import grad_power_kernel, hold
from .errors import (
    ConsistencyError,
    DegenerateConstraintError,
    InfeasibleConstraintError,
    TruncationError,
)
from .functionals import (
    ProblemSpec,
    _check_spec,
    constraint_K,
    energy_J,
    J_gradient,
)
from .graph import (
    WeightedGraph,
    _finite_vector,
    _integer,
    _number,
    _orbit_quotient,
    graph_distance,
    truncate_ball,
)
from .operators import _check_p, _p_laplacian

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


# Line-search constants: the first trial step of the first line search
# (natural for the curvature-scaled direction, and on the step lattice),
# the largest step ever tried, the backtracking factor, the Armijo
# sufficient-decrease fraction, the smallest step tried before the search
# counts as stagnated, and the relative resolution of J below which an
# energy decrease is taken as rounding.
_STEP_INIT = 1.0
_STEP_MAX = 8.0
_BACKTRACK = 0.5
_ARMIJO = 1e-4
_STEP_FLOOR = 1e-12
_J_RESOLUTION = 1e-12
# On the alpha = p branch the curvature diagonal is never taken below this
# fraction of J's own diagonal (see _Evaluator.curvature).
_LAGRANGIAN_FLOOR = 1e-3


@dataclass(frozen=True)
class SolveOptions:
    """Tuning knobs for the constrained descent, which starts around x0
    (see ``_initial_iterate``).  constraint_tol, the drift of K from 1
    that the final iterate may show, is a fixed constant.
    """

    max_iters: int = 20000
    grad_tol: float = 1e-8
    x0: int = 0
    constraint_tol: ClassVar[float] = 1e-10

    def __post_init__(self) -> None:
        # a boolean, a string or a fractional count raises ValueError naming the field
        object.__setattr__(self, "max_iters", _integer(self.max_iters, "max_iters"))
        object.__setattr__(self, "x0", _integer(self.x0, "x0"))
        object.__setattr__(self, "grad_tol", _number(self.grad_tol, "grad_tol"))
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")
        if not (self.grad_tol > 0.0 and np.isfinite(self.grad_tol)):
            raise ValueError("grad_tol must be a positive finite number")


@dataclass
class MinimizeTrace:
    """How a descent ended: iters line searches were run, with trials
    energy evaluations among them, and stagnated means the last one found
    no step; k_value is K(u_bar), from the final check that K = 1.  No
    per-iterate history is kept."""

    converged: bool
    iters: int
    stagnated: bool
    trials: int
    k_value: float


@dataclass
class ResidualReport:
    """Per-vertex defect of the target equation at a candidate solution.

    residual_rel_sup is the sup over vertices of rel(x), the defect relative
    to the sizes of the equation's terms (see verify.residual_report).
    """

    residual: np.ndarray
    residual_sup: float
    residual_l2: float
    residual_rel_sup: float


@dataclass
class SolveResult(ResidualReport):
    """Full output of the solve pipeline: u's residual report, extended.

    u_bar is the constrained minimizer (K(u_bar) = 1), u the rescaled
    solution of the unconstrained equation with multiplier eigen_factor, and
    the inherited fields u's defect; residual_rel_sup is reported, not gated.
    trace is the descent's own record (iters, k_value = K(u_bar), ...).
    """

    u_bar: np.ndarray
    gamma: float
    lam: float
    u: np.ndarray
    eigen_factor: float
    converged: bool
    positive: bool
    min_u: float
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


def _competitor_energy(g: WeightedGraph, spec: ProblemSpec, what: str) -> float:
    """Energy of the uniform function rescaled onto K = 1, an upper bound
    for the constrained infimum; ``what`` names it and its graph."""
    v = _Evaluator(g, spec).onto_constraint(np.ones(g.n), what)
    return _energy_on_constraint(g, spec, v, what)


def _energy_on_constraint(g: WeightedGraph, spec: ProblemSpec, v: np.ndarray, what: str) -> float:
    """energy_J(v) of a function v on K = 1 named ``what``, with no
    RuntimeWarning; InfeasibleConstraintError where it overflows float64."""
    with np.errstate(over="ignore"):
        j = energy_J(g, spec, v)
    if j == math.inf:
        raise InfeasibleConstraintError(f"the energy J of {what} overflows float64")
    return j


def _inflow(q: np.ndarray, dist: np.ndarray, p: float) -> np.ndarray:
    """prod_{k=1..dist(x0,x)} min(1, (q_k/q_0)^(-1/(p-1))), with q_k the
    smallest q on hop shell k: the tail in which q u^(p-1) is fed only by
    the inner shell.  Each factor lies in [0, 1]: an infinite q_k gives 0,
    and fmin keeps 1 where a nonpositive or NaN q makes the power NaN."""
    shell_q = np.full(int(dist.max()) + 1, math.inf)
    np.minimum.at(shell_q, dist, q)
    factor = np.fmin(1.0, (shell_q[1:] / shell_q[0]) ** (-1.0 / (p - 1.0)))
    return np.concatenate(([1.0], np.cumprod(factor)))[dist]


def _initial_iterate(ev: _Evaluator, opts: SolveOptions) -> np.ndarray:
    """The descent's start around opts.x0, renormalized onto K = 1.

    For alpha < p it is (balance + inflow(h)) / 2, for p = alpha
    inflow(h / (theta g)), floored at the smallest normal float64 (see
    ``_inflow``).  balance = ((g/h)_+ / max(g/h))^(1/(p-alpha)) solves the
    vertex equation without its p-Laplacian (the Thomas-Fermi profile), and
    the inflow tail is what balance underestimates when p - alpha is small.
    For p = alpha, h / (theta g) is the vertex equation's eigenvalue where
    the p-Laplacian vanishes, and a shell where g = 0 ends the tail at the
    floor.  Both are radial, so the start on an orbit quotient is the
    graph's; constant h and g for alpha < p, and a constant h / (theta g)
    for p = alpha, start at the exact minimizer (a positive eigenfunction is
    the first one).  The start lies in (0, 1] whatever h and g are, so only
    g can keep it off K = 1."""
    g, spec = ev.g, ev.spec
    if not 0 <= opts.x0 < g.n:
        raise ValueError("x0 out of range")
    dist = graph_distance(g, opts.x0)
    with np.errstate(all="ignore"):
        if spec.alpha < spec.p:
            ratio = spec.g / spec.h
            # a negative, infinite or NaN ratio contributes nothing
            ratio = np.where((ratio > 0.0) & (ratio < math.inf), ratio, 0.0)
            top = float(ratio.max())
            balance = (ratio / top) ** (1.0 / (spec.p - spec.alpha)) if top > 0.0 else ratio
            start = 0.5 * (balance + _inflow(spec.h, dist, spec.p))
        else:
            start = _inflow(spec.h / ev.theta_g, dist, spec.p)
    return ev.onto_constraint(np.maximum(start, np.finfo(np.float64).tiny), "the descent's start")


def _check_sup_bound(spec: ProblemSpec, u: np.ndarray, j: float, min_hmu: float) -> float:
    """sup u, after checking sup |u|^p * min(h mu) <= J(u), which must hold
    for every feasible iterate; an iterate of the descent is >= 0.  The
    p-th roots of the two sides are compared, so sup^p never leaves float64."""
    sup = float(u.max())
    if sup * min_hmu ** (1.0 / spec.p) > (j * (1.0 + 1e-12) + 1e-300) ** (1.0 / spec.p):
        raise ConsistencyError(
            f"energy accounting violated: sup bound min(h mu) sup u^p at sup u = {sup:.17g}"
            f" exceeds J = {j:.17g}"
        )
    return sup


class _Evaluator:
    """The descent's own evaluations on one (graph, spec), with their
    products of coefficients made once.  It trusts its iterates, finite
    and >= 0 (+0.0 at the zeros): it validates nothing and leaves out
    the public functions' ``abs``, ``sign`` and ``maximum`` passes, exact at
    u >= 0.  Products keep their operand order, e.g. ((alpha theta) g)
    u^(alpha-1), so ``mass`` and ``residual`` give the bits of
    ``constraint_K`` and of J_gradient(u) - lam _Gprime_field(u)."""

    def __init__(self, g: WeightedGraph, spec: ProblemSpec):
        _check_spec(g, spec)
        _check_p(spec.p)
        self.g, self.spec = g, spec
        with np.errstate(over="ignore", invalid="ignore"):  # onto_constraint names an overflow
            self.theta_g = spec.theta * spec.g
            self.alpha_theta_g = spec.alpha * spec.theta * spec.g
        self.mu_h = g.mu * spec.h
        self.min_hmu = float(self.mu_h.min())

    def mass(self, u: np.ndarray) -> float:
        """K(u) of a function u >= 0."""
        return float((self.g.mu * (self.theta_g * u ** self.spec.alpha)).sum())

    def onto_constraint(self, v: np.ndarray, what: str) -> np.ndarray:
        """``renormalize(v)`` of a start function v > 0 named ``what``, where
        float64 reaches K = 1; else InfeasibleConstraintError with the reason,
        sought only then.  No RuntimeWarning escapes."""
        with np.errstate(over="ignore", invalid="ignore"):
            u = self.renormalize(v)
            if u is not None and math.isfinite(self.alpha_theta_g.max()):
                return u
            k = self.mass(v)
        g = self.spec.g
        if not np.all(np.isfinite(g) & (g >= 0.0)):
            reason = "g must be nonnegative and finite"
        elif not np.any(g > 0.0):
            reason = "g vanishes on every vertex, so K(u) = 1 is empty"
        elif k == 0.0:
            reason = "the constraint mass K underflows to 0 although g > 0 somewhere"
        elif k == math.inf:
            reason = "the constraint mass K overflows float64"
        else:  # K is positive and finite, so only alpha theta g is not
            reason = "the coefficient product alpha theta g overflows float64"
        raise InfeasibleConstraintError(f"{reason}; {what} cannot be put on K = 1")

    def renormalize(self, v: np.ndarray):
        """Clamp to the nonnegative cone and rescale onto K = 1; None where the
        clamped function's K is not positive and finite."""
        plus = np.maximum(v, 0.0)
        k_raw = self.mass(plus)
        if not math.isfinite(k_raw) or k_raw <= 0.0:
            return None
        return plus * k_raw ** (-1.0 / self.spec.alpha)

    def residual(self, u: np.ndarray, j: float, w: np.ndarray | None = None):
        """Euler-Lagrange residual r = J'(u) - lam K'(u) at a feasible u, and
        lam = p J / alpha; ``w``, J'(u), is computed here unless given."""
        p, alpha = self.spec.p, self.spec.alpha
        if w is None:
            w = p * (self.spec.h * u ** (p - 1.0) - _p_laplacian(self.g, p, u))
        lam = p * j / alpha
        return w - lam * (self.alpha_theta_g * u ** (alpha - 1.0)), lam

    def curvature(self, u: np.ndarray, lam: float) -> np.ndarray:
        """Diagonal curvature that scales the descent direction, floored away from zero.

        For alpha < p this is the diagonal of the coordinate Hessian of J,
        H_xx = p(p-1) [sum_y w_xy |du|^{p-2} + h(x) mu(x) |u(x)|^{p-2}]; the
        p-Laplacian part degenerates on flat regions for p > 2, so the floor
        keeps the preconditioned direction finite there.

        For alpha = p it is the diagonal of the Lagrangian Hessian J'' - lam K''
        at the current multiplier lam = p J / alpha:
        p(p-1) [sum_y w_xy |du|^{p-2} + mu(x) |u(x)|^{p-2} (h(x) - lam theta g(x))].
        Wherever h is proportional to g the constraint's curvature cancels J's
        h-term, so J's diagonal overstates the curvature along K = 1 by that
        whole term and instances near it (h / g almost constant) stall at the
        step cap.
        The Lagrangian diagonal can vanish or go negative, so it is floored at
        _LAGRANGIAN_FLOOR times J's.  For alpha < p it is not used: nothing
        cancels there, and it slows convergence on most instances.

        At p = 2 both powers are 1 (0**0 is 1); 2 < alpha <= p rules p = 2 out.

        The floor is 1e-12 max(max(diag / mu), 1) mu: a fraction of the largest
        curvature density, in the measure's units.  So on an orbit quotient,
        whose cell of size s has s times its vertices' measure and diagonal,
        the floor scales with the cell, and the direction -mu r / diag is the
        one the full graph takes at each of the cell's vertices.
        """
        g, spec, p = self.g, self.spec, self.spec.p
        edge = 2.0 * g.mu * grad_power_kernel(
            g.indptr, g.indices, g.weights, g.mu, u, p - 2.0, g.pairing
        )
        u_pow = u ** (p - 2.0)
        j_diag = edge + self.mu_h * u_pow
        if spec.alpha == p:
            lagrangian = edge + g.mu * u_pow * (spec.h - lam * spec.theta * spec.g)
            diag = p * (p - 1.0) * np.maximum(lagrangian, _LAGRANGIAN_FLOOR * j_diag)
        else:
            diag = p * (p - 1.0) * j_diag
        # a density floor; where mu is 1 it is 1e-12 max(diag.max(), 1), bit for bit
        floor = 1e-12 * max(float((diag / g.mu).max()), 1.0) * g.mu
        return np.maximum(diag, floor)


def _kappa(spec: ProblemSpec, lam: float) -> tuple[float, float]:
    """kappa = (p / (alpha lam theta))^(1/(p - alpha)), which rescales u_bar
    to the solution for alpha < p, and kappa^(p-1), the size of the
    equation's terms at kappa u_bar.  DegenerateConstraintError where lam is
    0 or either leaves float64; at an iterate that is final, as J and lam
    only fall after it."""
    try:
        kappa = (spec.p / (spec.alpha * lam * spec.theta)) ** (1.0 / (spec.p - spec.alpha))
        scale = kappa ** (spec.p - 1.0)
        if math.isfinite(scale):
            return kappa, scale
    except (OverflowError, ZeroDivisionError):
        pass
    if lam == 0.0:
        raise DegenerateConstraintError("the multiplier lam = p J / alpha underflows to 0")
    raise DegenerateConstraintError(f"the rescaling factor kappa leaves float64 at lam = {lam:.17g}")


def _converged(
    spec: ProblemSpec, j: float, lam: float, sup_r: float, grad_tol: float
) -> bool:
    """Stationarity test: the EL residual, relative to 1 + J, is within
    grad_tol, and so is the sup residual the rescaled solution will have
    (within 10 grad_tol)."""
    if not sup_r / (1.0 + j) <= grad_tol:
        return False
    if spec.p == spec.alpha:
        final = sup_r / spec.p
    else:
        final = _kappa(spec, lam)[1] / spec.p * sup_r
    return final <= 10.0 * grad_tol


def _next_step(s: float, decrease: float, slope: float) -> float:
    """First trial step of the next line search after an Armijo accept at
    step s that lowered J by decrease along a direction of the given slope."""
    q = decrease / (s * -slope)
    factor = 2.0 if q >= 0.75 else 0.5 / (1.0 - q)
    return min(2.0 ** (round(8.0 * np.log2(s * factor)) / 8.0), _STEP_MAX)


def minimize_constrained(
    g: WeightedGraph, spec: ProblemSpec, opts: SolveOptions | None = None
):
    """Minimize J over the set K = 1 intersected with the nonnegative cone.

    Returns (u_bar, gamma, trace) where gamma = J(u_bar) is the attained
    energy level and trace.k_value = K(u_bar).  Raises
    InfeasibleConstraintError when the start cannot be put on K = 1
    (``_Evaluator.onto_constraint`` names why: K = 1 is empty, out of
    float64's reach, or g is invalid) or its J overflows float64,
    DegenerateConstraintError when lam or kappa leaves float64 (see
    ``_kappa``), and ConsistencyError when an iterate
    violates the uniform sup bound or K(u_bar) drifts off 1, which would
    mean the energy bookkeeping itself is broken.
    """
    if opts is None:
        opts = SolveOptions()
    ev = _Evaluator(g, spec)
    try:
        u = _initial_iterate(ev, opts)
        hold(u)
        j = _energy_on_constraint(g, spec, u, "the descent's start")
        sup_u = _check_sup_bound(spec, u, j, ev.min_hmu)

        step = _STEP_INIT
        r, lam = ev.residual(u, j, J_gradient(g, spec, u))
        sup_r = float(np.abs(r).max())

        stagnated = False
        iters = 0
        trials = 0
        big = 1e8

        while iters < opts.max_iters and not _converged(spec, j, lam, sup_r, opts.grad_tol):
            iters += 1
            mu_r = g.mu * r
            d = -mu_r / ev.curvature(u, lam)
            slope = float((mu_r * d).sum())
            sup_d = float(np.abs(d).max())
            s = step
            accepted = False
            polish = None
            while s >= _STEP_FLOOR:
                if s * sup_d > big * (1.0 + sup_u):
                    s *= _BACKTRACK
                    continue
                cand = ev.renormalize(u + s * d)
                if cand is None:
                    s *= _BACKTRACK
                    continue
                hold(cand)
                j_cand = energy_J(g, spec, cand)
                trials += 1
                if j_cand <= j + _ARMIJO * s * slope:
                    accepted = True
                    break
                # energy decreases below float resolution: fall back to a
                # plain residual decrease, never letting J creep upward
                if j_cand <= j + _J_RESOLUTION * (1.0 + abs(j)):
                    r_cand, lam_cand = ev.residual(cand, j_cand)
                    sup_cand = float(np.abs(r_cand).max())
                    if sup_cand <= 0.9 * sup_r:
                        accepted = True
                        polish = (r_cand, lam_cand, sup_cand)
                        break
                s *= _BACKTRACK
            if not accepted:
                stagnated = True
                break

            step = s
            if polish is None and j - j_cand > _J_RESOLUTION * (1.0 + abs(j)):
                step = _next_step(s, j - j_cand, slope)
            u, j = cand, j_cand
            sup_u = _check_sup_bound(spec, u, j, ev.min_hmu)

            if polish is None:
                r, lam = ev.residual(u, j)
                sup_r = float(np.abs(r).max())
            else:
                r, lam, sup_r = polish

        k_value = constraint_K(g, spec, u)
        if abs(k_value - 1.0) > opts.constraint_tol:
            raise ConsistencyError(
                f"constraint drifted off K = 1: K = {k_value:.17g}"
            )

        # also true after a stagnated line search at numerical optimality
        converged = _converged(spec, j, lam, sup_r, opts.grad_tol)
        return u, j, MinimizeTrace(
            converged=converged, iters=iters, stagnated=stagnated, trials=trials, k_value=k_value
        )
    finally:
        hold(None)


def _multiplier(spec: ProblemSpec, j: float, k: float) -> float:
    """lam = p J / (alpha K) of J(u) and K(u), as J'(u) u = p J(u) and K'(u) u = alpha K(u)."""
    lam = spec.p * j / (spec.alpha * k) if k > 0.0 else 0.0
    if not lam > 0.0:
        raise DegenerateConstraintError(
            f"multiplier is undefined or not positive: J = {j:.17g}, K = {k:.17g}"
        )
    return lam


def lagrange_multiplier(g: WeightedGraph, spec: ProblemSpec, u_bar: np.ndarray) -> float:
    """Multiplier lam = p J(u_bar) / (alpha K(u_bar)) of J'(u_bar) = lam K'(u_bar)
    at a constrained minimizer.  Raises ConsistencyError when u_bar is off the
    constraint set, |K(u_bar) - 1| > 1e-8, and DegenerateConstraintError when
    K(u_bar) or lam is not positive."""
    k = constraint_K(g, spec, u_bar)
    lam = _multiplier(spec, energy_J(g, spec, u_bar), k)
    if abs(k - 1.0) > 1e-8:
        raise ConsistencyError(f"u_bar is off the constraint set: K(u_bar) = {k:.17g}")
    return lam


def rescale_solution(spec: ProblemSpec, u_bar: np.ndarray, lam: float):
    """Turn a constrained minimizer into a solution of the target equation.

    For p > alpha the scaling u = kappa u_bar with
    kappa = (p / (alpha lam theta))^{1/(p - alpha)} absorbs the
    multiplier entirely and the eigenvalue factor is 1.  For p = alpha
    no scaling can change the balance and the factor lam theta is
    reported instead.  u_bar must be a finite numeric vertex array on the
    spec's vertices and lam a number; anything else raises ValueError, and a
    kappa or lam theta past float64 DegenerateConstraintError (see ``_kappa``).
    """
    u_bar = _finite_vector(u_bar, spec.n, "u_bar")
    lam = _number(lam, "lam")
    if spec.p < spec.alpha:
        raise ValueError("rescaling requires p >= alpha")
    if not (lam > 0.0 and np.isfinite(lam)):
        raise ValueError("multiplier lam must be positive and finite")
    if spec.p == spec.alpha:
        factor = lam * spec.theta
        if not 0.0 < factor < math.inf:
            raise DegenerateConstraintError(f"the eigenvalue factor lam theta leaves float64: {factor!r}")
        return u_bar.copy(), factor
    return _kappa(spec, lam)[0] * u_bar, 1.0


def _orbit_problem(g: WeightedGraph, spec: ProblemSpec, opts: SolveOptions):
    """``(quotient, its spec, cell)`` when the descent may run on g's orbit
    quotient: g keeps orbits around opts.x0 (a lattice or tree ball with a
    scalar mu, started at its anchor), and h and g are each exactly equal on
    every cell.  Else None."""
    orbits = _orbit_quotient(g, opts.x0)
    if orbits is None:
        return None
    cell, first, quotient = orbits
    if not all(np.array_equal(f[first][cell], f) for f in (spec.h, spec.g)):
        return None
    return quotient, spec.restrict(first), cell


def solve(
    g: WeightedGraph, spec: ProblemSpec, opts: SolveOptions | None = None
) -> SolveResult:
    """Full pipeline: check hypotheses, minimize, extract and absorb the
    multiplier, and certify the rescaled function as a positive solution.

    On a :func:`~yamabe.graph.lattice_ball` or :func:`~yamabe.graph.tree_ball`
    with a scalar mu, started at its anchor (opts.x0 the anchor), with h
    and g constant on each orbit of the
    symmetries that fix the anchor, the descent runs on the orbit quotient:
    the solution is unique for alpha < p and the first eigenfunction for
    p = alpha, so those symmetries fix it and it is constant on each orbit,
    where the quotient's p-Laplacian is the graph's.  Its u_bar is lifted to
    the graph with one gather; the hypotheses, the multiplier, the rescaling,
    the residual and the positivity certificate are all taken on the full
    graph.  Any other input is solved on the graph itself.
    """
    from .verify import hypotheses_check, positivity_certificate, residual_report

    if opts is None:
        opts = SolveOptions()
    hyp = hypotheses_check(g, spec)
    orbits = _orbit_problem(g, spec, opts)
    if orbits is None:
        u_bar, gamma, trace = minimize_constrained(g, spec, opts)
    else:
        quotient, spec_q, cell = orbits
        u_cells, gamma, trace = minimize_constrained(quotient, spec_q, replace(opts, x0=0))
        u_bar = u_cells[cell]
    # gamma and trace.k_value are the bits of J(u_bar) and K(u_bar)
    lam = _multiplier(spec, gamma, trace.k_value)
    u, eigen_factor = rescale_solution(spec, u_bar, lam)
    hold(u)  # the report's two kernels share one gather of u
    try:
        report = residual_report(g, spec, u, eigen_factor=eigen_factor)
    finally:
        hold(None)
    cert = positivity_certificate(g, u)
    converged = (
        trace.converged
        and cert.passed
        and report.residual_sup <= 10.0 * opts.grad_tol
    )
    return SolveResult(
        **vars(report),
        u_bar=u_bar,
        gamma=gamma,
        lam=lam,
        u=u,
        eigen_factor=eigen_factor,
        converged=converged,
        positive=cert.passed,
        min_u=cert.min_u,
        eigen_factor_is_unit=abs(eigen_factor - 1.0) <= 1e-8,
        hypotheses=hyp,
        trace=trace,
    )


def _ball_problem(g: WeightedGraph, spec: ProblemSpec, x0: int, radius: int):
    """The problem cut to the hop ball of the given radius around x0:
    (ball graph, spec restricted to it, x0's id in the ball)."""
    ball, anchor, new_to_old = truncate_ball(g, x0, radius)
    return ball, spec.restrict(new_to_old), anchor


def _universe_tails(g: WeightedGraph, spec: ProblemSpec, x0: int):
    """Check the hypotheses on the whole graph, so no tail comes from an h
    that vanishes somewhere, then return the hop distances from x0 and
    tail(R) for R = 0 .. ecc, tail(R) = (sum_{d(x) > R} h^-delta mu)^delta."""
    from .verify import hypotheses_check

    hypotheses_check(g, spec)
    dist = graph_distance(g, x0)
    return dist, _shell_tails(dist, g.mu, spec)


def _shell_tails(dist: np.ndarray, mu: np.ndarray, spec: ProblemSpec) -> np.ndarray:
    """tail(R) for R = 0 .. max dist over vertices (or cells) at hop distances
    ``dist`` from the anchor with measure ``mu``."""
    ecc = int(dist.max())
    shell = np.bincount(dist, weights=spec.h ** (-spec.delta) * mu, minlength=ecc + 1)
    # suffix[R] = mass strictly beyond radius R
    suffix = np.concatenate([np.cumsum(shell[::-1])[::-1], [0.0]])
    return suffix[1:] ** spec.delta


def k_tail_bound(
    g: WeightedGraph,
    spec: ProblemSpec,
    tail_value: float,
    gamma_est: float,
    cell_size: np.ndarray | None = None,
) -> float:
    """Constraint mass that can hide beyond a radius with the given tail value.

    The bound is monotone in tail_value and vanishes with it, which is
    what makes truncation converge. On a quotient, ``cell_size`` holds each
    cell's vertex count: the p = alpha branch bounds sup |u| by min(h mu)
    over vertices, so it takes each vertex's measure, g.mu / cell_size,
    not its cell's.  tail_value and gamma_est must be nonnegative numbers:
    a boolean, a string, NaN or a negative value raises ValueError naming it.
    """
    return _k_tail_bound(spec, g.mu, tail_value, gamma_est, cell_size)


def _k_tail_bound(spec: ProblemSpec, mu: np.ndarray, tail_value, gamma_est, cell_size=None) -> float:
    """:func:`k_tail_bound` on vertices (or cells) of measure ``mu``."""
    tail_value, gamma_est = _number(tail_value, "tail_value"), _number(gamma_est, "gamma_est")
    for name, value in (("tail_value", tail_value), ("gamma_est", gamma_est)):
        if not value >= 0.0:
            raise ValueError(f"{name} must be nonnegative, got {value!r}")
    p, alpha, delta, theta = spec.p, spec.alpha, spec.delta, spec.theta
    g_max = float(np.max(spec.g))
    min_h = float(np.min(spec.h))
    if p > alpha:
        const = theta * g_max * min_h ** (-(alpha / (p - alpha) - delta) * (p - alpha) / alpha)
        return const * tail_value ** ((p - alpha) * delta / alpha) * (gamma_est + 1.0) ** (alpha / p)
    mu = mu if cell_size is None else mu / cell_size
    min_hmu = float(np.min(spec.h * mu))
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
) -> TruncationChoice:
    """Smallest radius whose tail is at most epsilon and whose ball carries
    constraint mass (g > 0 somewhere on it), with its K-tail bound.

    The bound estimates the infimum by the uniform competitor's energy.
    epsilon must be a number and x0 and r_max integers: a boolean, a string
    or a fraction raises ValueError naming the argument.  Raises
    HypothesisError when a hypothesis fails on the whole graph,
    InfeasibleConstraintError when g vanishes on it, and TruncationError,
    carrying the best achieved tail, when no admissible radius exists.
    """
    epsilon = _number(epsilon, "epsilon")
    x0 = _integer(x0, "x0")
    if r_max is not None:
        r_max = _integer(r_max, "r_max")
    if not (epsilon > 0.0 and np.isfinite(epsilon)):
        raise ValueError("epsilon must be a positive finite number")
    if not 0 <= x0 < g.n:
        raise ValueError("x0 out of range")
    dist, tails = _universe_tails(g, spec, x0)
    limit = len(tails) - 1 if r_max is None else min(r_max, len(tails) - 1)
    if limit < 0:
        raise ValueError("r_max must be nonnegative")
    gamma_est = _competitor_energy(g, spec, "the uniform competitor on the whole graph")
    # a smaller ball has K = 0 identically, so K(u) = 1 is empty there
    r_mass = int(dist[spec.g > 0.0].min())
    admissible = np.flatnonzero(tails[r_mass : limit + 1] <= epsilon)
    if admissible.size == 0:
        where = f" on a ball where g > 0 (radius >= {r_mass})" if r_mass else ""
        raise TruncationError(
            f"no radius up to {limit} achieves tail <= {epsilon:.17g}{where}",
            achieved_tail=float(tails[limit]),
        )
    radius = r_mass + int(admissible[0])
    tail_value = float(tails[radius])
    return TruncationChoice(
        radius=radius,
        tail_value=tail_value,
        k_tail_bound=k_tail_bound(g, spec, tail_value, gamma_est),
        gamma_est=float(gamma_est),
        epsilon=epsilon,
    )
