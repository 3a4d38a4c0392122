"""Hypothesis checking, residual reporting, and numerical verification.

Everything here is a check: nothing mutates, and every report carries the
values it inspected so runs can be replayed and compared bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from ._kernels import edge_energy_rows, grad_power_kernel
from .errors import ConsistencyError, HypothesisError
from .families import GraphFamily, ProblemFamily
# energy_J is bound here for perfbench/selftest.py, which checks that the tracer rebinds it
from .functionals import ProblemSpec, _check_spec, energy_J  # noqa: F401
from .graph import WeightedGraph, _finite_vector, _integer, _number, as_vertex_function, integrate
from .operators import p_laplacian
from .solver import (
    ResidualReport,
    SolveOptions,
    _ball_problem,
    _competitor_energy,
    _k_tail_bound,
    _shell_tails,
    _universe_tails,
    solve,
)

__all__ = [
    "ResidualReport",
    "PositivityCertificate",
    "hypotheses_check",
    "residual_report",
    "positivity_certificate",
    "inequality_suite",
    "exhaustion_study",
]


def hypotheses_check(g: WeightedGraph, spec: ProblemSpec) -> dict:
    """Check every standing hypothesis and report the values inspected.

    Fails fast: the first violated hypothesis raises HypothesisError
    carrying that hypothesis' name.  On success returns a report dict
    listing each named check with its value, all passed.
    """
    _check_spec(g, spec)
    checks = _vertex_checks(spec, g.mu)
    # read off the anchor's distances the graph keeps: a raw graph searches here, on every check
    _record(checks, "connected", g.connected, True, "graph must be connected")
    return {"passed": True, "checks": checks}


def _record(checks: list, name: str, passed: bool, value, message: str) -> None:
    checks.append({"name": name, "passed": bool(passed), "value": value})
    if not passed:
        raise HypothesisError(name, message)


def _vertex_checks(spec: ProblemSpec, mu: np.ndarray) -> list[dict]:
    """Every hypothesis but connectedness, in :func:`hypotheses_check`'s order,
    on vertices (or cells) of measure ``mu``: the checks it records."""
    checks: list[dict] = []
    record = partial(_record, checks)
    p, alpha, delta, theta = spec.p, spec.alpha, spec.delta, spec.theta
    record("p_range", np.isfinite(p) and p >= 2.0, float(p), "p must satisfy p >= 2")

    min_h = float(np.min(spec.h))
    h_ok = min_h > 0.0 and bool(np.isfinite(spec.h).all())
    record("min_h", h_ok, min_h, "h must be positive and finite everywhere")

    with np.errstate(over="ignore"):
        h_mu = spec.h * mu
    min_hmu = float(np.min(h_mu))
    hmu_ok = min_hmu > 0.0 and float(np.max(h_mu)) < np.inf
    record(
        "min_hmu", hmu_ok, min_hmu, "h*mu must be positive everywhere and must not overflow float64"
    )

    g_max = float(np.max(spec.g)) if mu.size else 0.0
    g_ok = bool(np.min(spec.g) >= 0.0) and np.isfinite(g_max)
    record("g_nonneg", g_ok, g_max, "g must be nonnegative and bounded")

    if p > 2.0:
        delta_ok = 0.0 < delta < 1.0 / (p - 2.0)
        delta_msg = "delta must lie strictly between 0 and 1/(p - 2)"
    else:
        delta_ok = delta > 0.0
        delta_msg = "delta must be positive"
    record("delta_range", delta_ok, float(delta), delta_msg)

    if not alpha > 2.0:
        record("alpha_range", False, float(alpha), "alpha must exceed 2")
    record("alpha_range", alpha <= p, float(alpha), "alpha must not exceed p")

    record("theta_positive", 0.0 < theta < np.inf, float(theta), "theta must be positive and finite")

    h_delta = _finite_vector(spec.h ** (-delta), mu.size, "vertex function")
    tail_integral = float((mu * h_delta).sum()) ** delta
    record(
        "h_delta_integral",
        np.isfinite(tail_integral),
        tail_integral,
        "(int h^-delta dmu)^delta must be finite",
    )
    return checks


def residual_report(
    g: WeightedGraph, spec: ProblemSpec, u: np.ndarray, eigen_factor: float = 1.0
) -> ResidualReport:
    """Defect r = -lap_p u + h u^{p-1} - eigen_factor g u^{alpha-1}.

    eigen_factor is 1 for the fully rescaled equation and the reported
    factor for the p = alpha eigenvalue form.  The relative defect is
    rel(x) = |r(x)| / (sum_y w_xy |u(y)-u(x)|^{p-1} / mu(x)
    + h |u|^{p-1} + eigen_factor g u_+^{alpha-1}), which lies in [0, 1] up
    to rounding and is 0 where every term vanishes.  Unlike |r|, it does
    not shrink with u, so a wrong tail shows up as rel near 1.
    eigen_factor must be a positive finite number: a boolean, a string, NaN
    or anything else raises ValueError naming it.
    """
    _check_spec(g, spec)
    eigen_factor = _number(eigen_factor, "eigen_factor")
    if not (eigen_factor > 0.0 and np.isfinite(eigen_factor)):
        raise ValueError(f"eigen_factor must be positive and finite, got {eigen_factor!r}")
    u = as_vertex_function(g, u)
    plus = np.maximum(u, 0.0)
    u_pow = np.abs(u) ** (spec.p - 1.0)
    g_term = eigen_factor * spec.g * plus ** (spec.alpha - 1.0)
    r = -p_laplacian(g, spec.p, u) + spec.h * np.sign(u) * u_pow - g_term
    flow = 2.0 * grad_power_kernel(
        g.indptr, g.indices, g.weights, g.mu, u, spec.p - 1.0, g.pairing
    )
    scale = flow + spec.h * u_pow + np.abs(g_term)
    abs_r = np.abs(r)
    rel = abs_r / np.where(scale > 0.0, scale, 1.0)
    sup = float(abs_r.max()) if g.n else 0.0
    with np.errstate(over="ignore"):  # past float64, the sum is taken of r / sup |r|
        l2 = float(np.sqrt(np.sum(g.mu * r * r)))
        if l2 == np.inf and 0.0 < sup < np.inf:
            q = r / sup
            l2 = sup * float(np.sqrt(np.sum(g.mu * q * q)))
    return ResidualReport(
        residual=r,
        residual_sup=sup,
        residual_l2=l2,
        residual_rel_sup=float(rel.max()) if g.n else 0.0,
    )


@dataclass
class PositivityCertificate:
    """Strict-positivity verdict: passed means min_u > 0."""

    passed: bool
    min_u: float


def positivity_certificate(g: WeightedGraph, u: np.ndarray) -> PositivityCertificate:
    min_u = float(as_vertex_function(g, u).min())
    return PositivityCertificate(min_u > 0.0, min_u)


# float64 values per inequality_suite block array (128 KiB): few enough to keep peak memory flat
_BLOCK_VALUES = 1 << 14


def _ratio_update(state: dict, lhs, rhs) -> None:
    """Track max lhs/rhs and count violations of lhs <= rhs (1e-9 slack). Each row
    of a 2-D pair is one update: a NaN ratio leaves its row out of the max."""
    lhs = np.atleast_2d(np.asarray(lhs, dtype=np.float64))
    rhs = np.atleast_2d(np.asarray(rhs, dtype=np.float64))
    bad = lhs > rhs * (1.0 + 1e-9) + 1e-300
    state["violations"] += int(np.count_nonzero(bad))
    # a row without rhs > 0 tops out at -inf, below any max so far (>= 0)
    ratio = np.divide(lhs, rhs, out=np.full(lhs.shape, -np.inf), where=rhs > 0.0)
    row_max = ratio.max(axis=1)
    row_max = row_max[~np.isnan(row_max)]
    if row_max.size:
        state["max_ratio"] = max(state["max_ratio"], float(row_max.max()))


def inequality_suite(
    g: WeightedGraph, spec: ProblemSpec, trials: int, seed: int
) -> dict:
    """Randomized verification of the inequalities the argument rests on.

    These inequalities hold identically, so any violation beyond 1e-9
    relative slack is an implementation bug, not a numerical finding.
    The seed is recorded in the report for replay.  Two of the
    inequalities need p > 2, which the hypotheses 2 < alpha <= p imply.
    After its argument checks it runs ``hypotheses_check``: outside the
    hypotheses a ratio can be inf/inf, which the suite would drop.

    The replay contract is the order of the draws within a trial:
    gj_pointwise draws normal(n), then uniform(0, 1/(p-2)); holder_embedding
    normal(n); bd_sup_bound uniform(0.1, 3), then normal(n). Trials are
    evaluated in blocks, one row per trial, and every number is computed as
    one trial at a time would compute it (the scalar powers stay Python
    floats, and J's edge sums come from ``edge_energy_rows``, each row's the
    bits of the energy kernel's), so the report is the same bit for bit
    whatever the block size. holder_embedding draws a whole block with one
    ``standard_normal``, since nothing else is drawn between its rows and
    the generator fills the block's rows in order; gj_pointwise and
    bd_sup_bound draw row by row, as each row's normals sit next to a
    uniform in the stream.
    """
    _check_spec(g, spec)
    trials, seed = _integer(trials, "trials"), _integer(seed, "seed")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if not spec.p > 2.0:
        raise ValueError("inequality_suite needs p > 2")
    hypotheses_check(g, spec)
    rng = np.random.default_rng(seed)
    p, alpha, delta = spec.p, spec.alpha, spec.delta
    n = g.n
    results: dict[str, dict] = {}
    rows = max(1, _BLOCK_VALUES // n)
    buf = np.empty((min(rows, trials), n))
    blocks = [(k, buf[: min(rows, trials - k)]) for k in range(0, trials, rows)]

    def fresh() -> dict:
        return {"violations": 0, "max_ratio": 0.0}

    # |x^a - y^a| <= a |x - y| (x^{a-1} + y^{a-1}) for x, y >= 0, a >= 1
    state = fresh()
    x = rng.uniform(0.0, 10.0, trials)
    y = rng.uniform(0.0, 10.0, trials)
    a = rng.uniform(1.0, 6.0, trials)
    _ratio_update(state, np.abs(x**a - y**a), a * np.abs(x - y) * (x ** (a - 1.0) + y ** (a - 1.0)))
    results["elementary"] = state

    # h^{-1/(p-2)} <= (min h)^{-(1/(p-2) - d)} h^{-d} pointwise, 0 < d < 1/(p-2)
    state = fresh()
    _ratio_update(
        state,
        spec.h ** (-1.0 / (p - 2.0)),
        float(np.min(spec.h)) ** (-(1.0 / (p - 2.0) - delta)) * spec.h ** (-delta),
    )
    for _, h_r in blocks:
        d_r = np.empty(len(h_r))
        for k, row in enumerate(h_r):
            rng.standard_normal(out=row)
            d_r[k] = rng.uniform(0.0, 1.0 / (p - 2.0))
        np.exp(h_r, out=h_r)
        mins = h_r.min(axis=1).tolist()
        factor = np.array([m ** (-(1.0 / (p - 2.0) - d)) for m, d in zip(mins, d_r.tolist())])
        _ratio_update(state, h_r ** (-1.0 / (p - 2.0)), factor[:, None] * h_r ** -d_r[:, None])
    results["gj_pointwise"] = state

    # int |w|^{p/(p-1)} dmu <= (int h^{-1/(p-2)} dmu)^{(p-2)/(p-1)} (int h|w|^p dmu)^{1/(p-1)}
    # one scalar pair per trial here and below, so one _ratio_update takes them all
    state = fresh()
    h_pow = float(integrate(g, spec.h ** (-1.0 / (p - 2.0)))) ** ((p - 2.0) / (p - 1.0))
    lhs, rhs = np.empty(trials), np.empty(trials)
    for k, w in blocks:
        rng.standard_normal(out=w)
        np.abs(w, out=w)
        lhs[k : k + len(w)] = (g.mu * w ** (p / (p - 1.0))).sum(axis=1)
        h_term = (g.mu * (spec.h * w**p)).sum(axis=1).tolist()
        rhs[k : k + len(w)] = [h_pow * s ** (1.0 / (p - 1.0)) for s in h_term]
    _ratio_update(state, lhs, rhs)
    results["holder_embedding"] = state

    # min(h mu) sup|u|^p <= J(u) for every u; J's h term is ((mu h) |u|^p) as in energy_J
    state = fresh()
    mu_h = g.mu * spec.h
    min_hmu = float(np.min(mu_h))
    for k, u in blocks:
        scale = np.empty(len(u))
        for j, row in enumerate(u):
            scale[j] = rng.uniform(0.1, 3.0)
            rng.standard_normal(out=row)
        u *= scale[:, None]
        size = np.abs(u)
        lhs[k : k + len(u)] = [min_hmu * m**p for m in size.max(axis=1).tolist()]
        rhs[k : k + len(u)] = edge_energy_rows(u, p, g.pairing, _BLOCK_VALUES)
        rhs[k : k + len(u)] += (mu_h * size**p).sum(axis=1)
    _ratio_update(state, lhs, rhs)
    results["bd_sup_bound"] = state

    for state in results.values():
        state["passed"] = state["violations"] == 0
    return {
        "seed": seed,
        "trials": trials,
        "passed": all(state["passed"] for state in results.values()),
        "inequalities": results,
    }


def _study_universe(family, spec, radius: int, largest: int):
    """The universe a study checks the hypotheses and takes its tails on, and
    the largest ball it solves, as ``(spec, mu, cell_size, tails, (ball,
    ball_spec, anchor))``. The one place the graphs are chosen.

    For a radial ProblemFamily on a GraphFamily with a quotient (a lattice
    or tree with a scalar mu) sized by the radius, the universe is that
    quotient's cells as data (``family._cells``), connected by construction,
    and the one graph built is the family's member at ``largest``
    (``materialize(largest, cells=True)``), the universe's ball of that
    radius. Otherwise the universe is a graph, the family's quotient (its
    extent fixed by a param) or ball (``cell_size`` None), and the largest
    ball is cut from it."""
    quotient = isinstance(family, GraphFamily) and isinstance(spec, ProblemFamily) and spec.radial
    cells = family._cells(radius) if quotient else None
    if cells is not None:
        dist, mu, cell_size = cells
        spec_u = spec._at(dist)
        _vertex_checks(spec_u, mu)
        ball, anchor, _ = family.materialize(largest, cells=True)
        return spec_u, mu, cell_size, _shell_tails(dist, mu, spec_u), (ball, spec.on(ball, anchor), anchor)
    built = family.materialize(radius, cells=True) if quotient else None
    g, x0, cell_size = (*family.materialize(radius), None) if built is None else built
    spec_u = spec.on(g, x0)
    _, tails = _universe_tails(g, spec_u, x0)
    return spec_u, g.mu, cell_size, tails, _ball_problem(g, spec_u, x0, largest)


def exhaustion_study(
    family,
    spec,
    radii,
    opts: SolveOptions | None = None,
    universe_radius: int | None = None,
) -> dict:
    """Solve on nested ball truncations and certify the energy is nonincreasing
    along the balls whose solve converged.

    family materializes graphs by radius (family.materialize(R) -> (graph,
    anchor)) and spec evaluates problem data on them (spec.on(graph,
    anchor) -> ProblemSpec).  The universe ball of ``universe_radius``
    supplies the hypotheses and the tails; the only ball built as a graph is
    the largest one solved, and each smaller ball is cut from the next
    larger one (see ``_study_universe``). Each ball's solve starts around its
    anchor, so opts.x0 must keep its default.

    When spec is a radial ProblemFamily (h and g numbers or formulas in
    dist, not per-vertex sequences) and family is a GraphFamily with a
    quotient (a lattice or tree with a scalar mu), the universe beyond the
    largest ball is never built, only its cells' data, and every ball is
    solved on its cells: the same
    problem on far fewer vertices, with the same gamma and lambda up to
    rounding. Otherwise it is solved on the ball itself. tail_bound bounds
    the full graph, so its min(h mu) is taken over vertex measures (a cell's
    measure over its size).  Invalid input (a radius that is not an integer)
    raises ValueError, and a hypothesis violated anywhere on the universe
    raises HypothesisError before any ball is cut; g vanishing on the
    smallest ball raises InfeasibleConstraintError; a numerical failure of
    one ball's solve raises RuntimeError naming the radius.
    """
    radii = [_integer(r, "radius") for r in radii]
    if not radii:
        raise ValueError("radii must be nonempty")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly increasing")
    if radii[0] < 0:
        raise ValueError("radii must be nonnegative")
    universe_radius = _integer(
        2 * max(radii) if universe_radius is None else universe_radius, "universe_radius"
    )
    if universe_radius < max(radii):
        raise ValueError("universe_radius must cover the largest radius")
    if opts is not None and opts.x0 != SolveOptions.x0:
        raise ValueError(
            "exhaustion_study starts each ball at its anchor; x0 must keep its default"
        )

    spec_u, mu_u, cell_size, tails, largest = _study_universe(
        family, spec, universe_radius, radii[-1]
    )
    balls = [largest]  # each smaller ball is cut from the next larger one
    for radius in radii[-2::-1]:
        balls.append(_ball_problem(*balls[-1], radius))

    rows = []
    gamma_est = None
    prev_gamma = np.inf  # gamma of the last converged ball
    base_opts = SolveOptions() if opts is None else opts
    for radius, (ball, spec_r, anchor) in zip(radii, reversed(balls)):
        if gamma_est is None:
            # energy of the uniform competitor on the smallest ball bounds
            # every gamma_R with R >= radii[0] from above
            gamma_est = _competitor_energy(
                ball, spec_r, f"the uniform competitor on the radius-{radius} ball"
            )
        try:
            res = solve(ball, spec_r, replace(base_opts, x0=anchor))
        except RuntimeError as exc:
            raise RuntimeError(f"solve failed at radius {radius}: {exc}") from exc
        # an unconverged gamma is only an upper bound of its ball's level
        if res.converged and res.gamma > prev_gamma + 1e-9:
            raise ConsistencyError(
                f"gamma increased along nested truncations at radius {radius}: "
                f"{res.gamma:.17g} > {prev_gamma:.17g}"
            )
        tail_r = float(tails[min(radius, len(tails) - 1)])
        rows.append(
            {
                "R": radius,
                "gamma": res.gamma,
                "lambda": res.lam,
                "tail_bound": _k_tail_bound(spec_u, mu_u, tail_r, gamma_est, cell_size),
                "converged": res.converged,
            }
        )
        if res.converged:
            prev_gamma = res.gamma
    gaps = [
        abs(rows[k + 1]["gamma"] - rows[k]["gamma"]) for k in range(len(rows) - 1)
    ]
    return {
        "rows": rows,
        "gaps": gaps,
        "gamma_est": gamma_est,
        "universe_radius": universe_radius,
    }
