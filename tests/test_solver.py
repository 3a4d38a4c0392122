"""Constrained minimization, multiplier extraction, rescaling, truncation."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from conftest import (
    constant_spec,
    count_calls,
    random_connected_graph,
    random_positive_spec_fields,
    raise_trial_energies,
    record_accepted_iterates,
)
from yamabe import (
    ConsistencyError,
    DegenerateConstraintError,
    InfeasibleConstraintError,
    ProblemSpec,
    SolveOptions,
    TruncationError,
    WeightedGraph,
    choose_truncation_radius,
    constraint_K,
    cycle_graph,
    energy_J,
    graph_distance,
    hypotheses_check,
    integrate,
    J_gradient,
    k_tail_bound,
    lagrange_multiplier,
    lattice_ball,
    minimize_constrained,
    path_graph,
    rescale_solution,
    residual_report,
    solve,
    tree_ball,
)
from instances import proportional
from test_kernels import every_builder
from test_orbits import descent_sizes
from yamabe import _kernels
from yamabe._kernels import edge_energy_kernel, grad_power_kernel
from yamabe.functionals import _Gprime_field
from yamabe.graph import as_vertex_function
from yamabe.solver import (
    _LAGRANGIAN_FLOOR,
    _STEP_FLOOR,
    _Evaluator,
    _check_sup_bound,
    _initial_iterate,
    _next_step,
)


def test_single_vertex_closed_form():
    g = WeightedGraph.from_edges(1, [])
    spec = constant_spec(g, 4.0, 3.0)
    res = solve(g, spec)
    # K(u) = u^3 = 1 forces u_bar = 1, gamma = h = 1, lam = p gamma / alpha
    np.testing.assert_allclose(res.u_bar, [1.0], atol=1e-14)
    assert res.gamma == pytest.approx(1.0, abs=1e-14)
    assert res.lam == pytest.approx(4.0 / 3.0, rel=1e-14)
    # kappa = (p/(alpha lam))^{1/(p-alpha)} = 1, so u = u_bar exactly
    np.testing.assert_allclose(res.u, [1.0], atol=1e-14)
    assert res.eigen_factor == 1.0
    assert res.residual_sup <= 1e-12
    assert res.converged and res.positive
    assert res.trace.iters == 0


def test_symmetric_pair_closed_form():
    # two equal vertices: the symmetric profile c = 2^{-1/3} is optimal,
    # giving gamma = 2 c^4 = 2^{-1/3}
    g = WeightedGraph.from_edges(2, [(0, 1, 1.0)])
    spec = constant_spec(g, 4.0, 3.0)
    res = solve(g, spec)
    assert res.converged
    assert res.gamma == pytest.approx(2.0 ** (-1.0 / 3.0), rel=1e-9)
    np.testing.assert_allclose(res.u_bar, [2.0 ** (-1.0 / 3.0)] * 2, rtol=1e-7)


def test_minimizer_beats_random_competitors():
    g, _ = path_graph(8)
    spec = constant_spec(g, 4.0, 3.0)
    res = solve(g, spec)
    assert res.converged
    rng = np.random.default_rng(5)
    for _ in range(100):
        v = np.abs(rng.standard_normal(g.n)) + 1e-3
        v = v * constraint_K(g, spec, v) ** (-1.0 / spec.alpha)
        assert constraint_K(g, spec, v) == pytest.approx(1.0, rel=1e-12)
        assert energy_J(g, spec, v) >= res.gamma * (1.0 - 1e-9)


def test_multiplier_least_squares_oracle():
    # at a constrained critical point J'(u) = lam K'(u) pointwise, so the
    # least-squares fit of lam from the two gradient densities must agree
    g, _ = path_graph(9)
    spec = constant_spec(g, 4.0, 3.0, h=2.0)
    res = solve(g, spec, SolveOptions(grad_tol=1e-11))
    assert res.converged
    w = J_gradient(g, spec, res.u_bar)
    q = spec.alpha * spec.theta * spec.g * np.maximum(res.u_bar, 0.0) ** (
        spec.alpha - 1.0
    )
    lam_ls = float(integrate(g, w * q)) / float(integrate(g, q * q))
    assert res.lam == pytest.approx(lam_ls, rel=1e-6)
    # the per-vertex defect the CLI writes is the one residual_report gives
    rep = residual_report(g, spec, res.u, eigen_factor=res.eigen_factor)
    np.testing.assert_array_equal(res.residual, rep.residual)
    assert res.residual_sup == rep.residual_sup


def test_multiplier_rejects_off_constraint_input():
    g, _ = path_graph(5)
    spec = constant_spec(g, 4.0, 3.0)
    res = solve(g, spec)
    with pytest.raises(ConsistencyError):
        lagrange_multiplier(g, spec, 2.0 * res.u_bar)


def test_multiplier_degenerate_input():
    g, _ = path_graph(5)
    spec = constant_spec(g, 4.0, 3.0)
    with pytest.raises(DegenerateConstraintError):
        lagrange_multiplier(g, spec, np.zeros(g.n))


def test_theta_scaling_invariance():
    # the rescaled solution u and its residual are invariant under
    # theta -> c theta; only the constrained level gamma moves
    g, _ = path_graph(12)
    base = constant_spec(g, 4.0, 3.0, theta=1.0)
    quadrupled = dataclasses.replace(base, theta=4.0)
    r1 = solve(g, base)
    r4 = solve(g, quadrupled)
    assert r1.converged and r4.converged
    np.testing.assert_allclose(r4.u, r1.u, rtol=1e-6)
    assert r4.eigen_factor == r1.eigen_factor == 1.0
    # gamma scales by c^{-p/alpha}
    assert r4.gamma == pytest.approx(4.0 ** (-4.0 / 3.0) * r1.gamma, rel=1e-8)


def test_rescale_formula_values():
    ones = np.ones(3)
    spec = ProblemSpec(p=4.0, alpha=3.0, delta=0.4, theta=1.0, h=ones, g=ones)
    u, factor = rescale_solution(spec, ones, 2.0)
    # kappa = (4 / (3 * 2))^{1/(4-3)} = 2/3
    np.testing.assert_allclose(u, ones * (2.0 / 3.0), rtol=1e-15)
    assert factor == 1.0
    u, factor = rescale_solution(spec, ones, 4.0 / 3.0)
    np.testing.assert_allclose(u, ones, rtol=1e-15)

    equal = ProblemSpec(p=3.0, alpha=3.0, delta=0.4, theta=2.0, h=ones, g=ones)
    u, factor = rescale_solution(equal, ones, 1.5)
    np.testing.assert_array_equal(u, ones)
    assert factor == 3.0

    bad = ProblemSpec(p=2.5, alpha=3.0, delta=0.4, theta=1.0, h=ones, g=ones)
    with pytest.raises(ValueError):
        rescale_solution(bad, ones, 1.0)
    with pytest.raises(ValueError):
        rescale_solution(spec, ones, -1.0)


def test_equal_exponents_branch():
    g, _ = path_graph(10)
    spec = constant_spec(g, 3.0, 3.0, h=2.0)
    res = solve(g, spec)
    assert res.converged
    assert res.eigen_factor == pytest.approx(res.lam * spec.theta, rel=1e-14)
    assert not res.eigen_factor_is_unit
    np.testing.assert_array_equal(res.u, res.u_bar)


def test_minimizer_invariant_under_vertex_relabelling():
    # the positive minimizer is unique, so numbering the vertices differently
    # must give the same iterates up to rounding, hence the same iteration
    # count; p = alpha with steep h is where a stalled descent used to show it
    base, x0 = cycle_graph(20)

    def minimize(graph, anchor):
        dist = graph_distance(graph, anchor).astype(np.float64)
        spec = ProblemSpec(
            p=2.5, alpha=2.5, delta=0.4, h=1.0 + dist**4, g=np.ones(graph.n)
        )
        return minimize_constrained(graph, spec, SolveOptions(x0=anchor))

    u_ref, _, trace_ref = minimize(base, x0)
    assert trace_ref.converged
    edges = np.array(
        [(x, y, w) for x in range(base.n) for y, w in zip(*base.neighbors(x)) if x < y]
    )
    for seed in range(6):
        # vertex v of the base graph is vertex perm[v] of the relabelled one
        perm = np.random.default_rng(seed).permutation(base.n)
        relabelled = edges.copy()
        relabelled[:, :2] = perm[edges[:, :2].astype(np.int64)]
        graph = WeightedGraph.from_edges(base.n, relabelled)
        u_bar, _, trace = minimize(graph, int(perm[x0]))
        assert trace.converged, seed
        assert trace.iters == trace_ref.iters, seed
        np.testing.assert_allclose(u_bar[perm], u_ref, rtol=0.0, atol=1e-12)


def test_line_search_spends_about_one_trial_per_iteration(monkeypatch):
    # each line search starts at the step the previous one carried over,
    # rescaled by the quadratic model, so few trials are thrown away
    g, x0 = lattice_ball(2, 20)
    dist = graph_distance(g, x0).astype(np.float64)
    spec = ProblemSpec(p=4.0, alpha=3.0, delta=0.4, h=1.0 + dist**2, g=np.ones(g.n))
    counts = count_calls(monkeypatch, energy_J, edge_energy_kernel)
    _, _, trace = minimize_constrained(g, spec, SolveOptions(x0=x0))
    assert trace.converged
    # one energy pass for the start, then one per trial
    assert counts["edge_energy_kernel"] == counts["energy_J"] == 1 + trace.trials
    assert trace.trials / trace.iters <= 1.5


@pytest.mark.parametrize("max_iters", [0, 4, 20000])
@pytest.mark.parametrize("alpha", [3.0, 4.0])
def test_descent_calls_the_gradient_and_the_constraint_once(monkeypatch, max_iters, alpha):
    # the descent evaluates its own iterates: J_gradient runs on the first
    # one and constraint_K on the last, however many iterations run between;
    # each trial's energy is one edge pass, and only the start's energy, the
    # first gradient and the last constraint check their input
    g, x0 = path_graph(20)
    dist = graph_distance(g, x0).astype(np.float64)
    spec = ProblemSpec(p=4.0, alpha=alpha, delta=0.4, h=1.0 + dist**2, g=np.ones(g.n))
    counts = count_calls(monkeypatch, J_gradient, constraint_K, energy_J, edge_energy_kernel, as_vertex_function)
    _, _, trace = minimize_constrained(g, spec, SolveOptions(x0=x0, max_iters=max_iters))
    assert trace.iters == max_iters or trace.converged and trace.iters > 4
    assert counts == {"J_gradient": 1, "constraint_K": 1, "as_vertex_function": 3,
                      "energy_J": 1 + trace.trials, "edge_energy_kernel": 1 + trace.trials}


@pytest.mark.parametrize("alpha, theta", [(3.0, 1.0), (3.0, 2.5), (4.0, 2.5)])
def test_solve_evaluates_nothing_after_the_descent(monkeypatch, alpha, theta):
    # lam = p J / (alpha K) and k_value are the descent's last J and K:
    # solve adds no energy_J, constraint_K or lagrange_multiplier call
    g, x0 = path_graph(20)
    dist = graph_distance(g, x0).astype(np.float64)
    spec = ProblemSpec(p=4.0, alpha=alpha, delta=0.4, theta=theta, h=1.0 + dist**2, g=np.ones(g.n))
    counts = count_calls(monkeypatch, J_gradient, constraint_K, energy_J, lagrange_multiplier, edge_energy_kernel)
    res = solve(g, spec, SolveOptions(x0=x0))
    assert counts["lagrange_multiplier"] == 0
    assert counts == {"J_gradient": 1, "constraint_K": 1, "energy_J": 1 + res.trace.trials,
                      "edge_energy_kernel": 1 + res.trace.trials}
    # the public multiplier gives the same bits from its own J and K of u_bar
    assert res.trace.k_value == constraint_K(g, spec, res.u_bar)
    assert res.gamma == energy_J(g, spec, res.u_bar)
    assert res.lam == lagrange_multiplier(g, spec, res.u_bar)
    assert res.lam == spec.p * res.gamma / (alpha * res.trace.k_value)


def curvature_reference(g, spec, u, lam):
    """The descent's curvature diagonal (see ``_Evaluator.curvature``) with
    the abs pass and the coefficient products of every call."""
    p = spec.p
    edge = 2.0 * g.mu * grad_power_kernel(g.indptr, g.indices, g.weights, g.mu, u, p - 2.0, g.pairing)
    u_pow = np.abs(u) ** (p - 2.0)
    j_diag = edge + spec.h * g.mu * u_pow
    if spec.alpha == p:
        lagrangian = edge + g.mu * u_pow * (spec.h - lam * spec.theta * spec.g)
        diag = p * (p - 1.0) * np.maximum(lagrangian, _LAGRANGIAN_FLOOR * j_diag)
    else:
        diag = p * (p - 1.0) * j_diag
    # the floor is a fraction of the largest curvature density, diag / mu
    return np.maximum(diag, 1e-12 * max(float((diag / g.mu).max()), 1.0) * g.mu)


@pytest.mark.parametrize("p", [2.2, 2.5, 3.0, 4.0, 6.0])
def test_evaluator_matches_the_public_functions_bit_for_bit(p):
    # the descent's evaluator checks nothing and skips the abs, sign and
    # maximum passes on its iterates, handed to the kernels and >= 0 with
    # exact zeros; its energy, constraint mass, residual and curvature must
    # keep every bit
    rng = np.random.default_rng(21)
    for g in every_builder():
        for alpha in (2.0 + 0.5 * (p - 2.0), p):
            h, coef = random_positive_spec_fields(rng, g.n)
            theta = float(rng.uniform(0.5, 2.0))
            spec = ProblemSpec(p=p, alpha=alpha, delta=0.4, theta=theta, h=h, g=coef)
            ev = _Evaluator(g, spec)
            v = rng.standard_normal(g.n) * 10.0 ** rng.uniform(-3, 3)
            v[np.argmax(coef)] = 1.0  # constraint mass
            v[np.argmin(coef)] = -1.0  # and an exact zero; coef has a 1.0 and a smaller entry
            plus = np.maximum(v, 0.0)
            assert ev.mass(plus) == constraint_K(g, spec, plus)
            u = ev.renormalize(v)
            assert getattr(_kernels._scratch, "held", None) is not u and (u == 0.0).any()
            _kernels.hold(u)  # as the descent holds its iterates
            assert u.tobytes() == (plus * constraint_K(g, spec, plus) ** (-1.0 / alpha)).tobytes()
            assert ev.mass(u) == constraint_K(g, spec, u)
            j = energy_J(g, spec, u)
            for w in (u, 3.0 * u):  # held and not
                assert ev.energy(w).hex() == energy_J(g, spec, w).hex()
            r, lam = ev.residual(u, j)
            assert lam == p * j / alpha
            assert r.tobytes() == (J_gradient(g, spec, u) - lam * _Gprime_field(spec, u)).tobytes()
            assert ev.residual(u, j, J_gradient(g, spec, u))[0].tobytes() == r.tobytes()
            for mult in (lam, 10.0 * lam):  # the larger puts more vertices on the Lagrangian's floor
                assert ev.curvature(u, mult).tobytes() == curvature_reference(g, spec, u, mult).tobytes()
    _kernels.hold(None)


@pytest.mark.parametrize("theta, g_val", [(1e300, 1.0), (1.0, 1e300)], ids=["theta", "g"])
def test_evaluator_energy_keeps_the_bits_on_both_sides_of_the_underflow_switch(theta, g_val):
    # h mu = 1e300 and u on K = 1 near 5.8e-101, whose |u|^4 underflows:
    # there J's h term is summed as ((h mu)^(1/4) u)^4; scaled up, the
    # plain sum is kept; the evaluator's bound, made once, switches alike
    g, x0 = path_graph(5)
    spec = ProblemSpec(p=4.0, alpha=3.0, delta=0.4, theta=theta, h=np.full(5, 1e300),
                       g=np.full(5, g_val))
    ev = _Evaluator(g, spec)
    u = _initial_iterate(ev, SolveOptions(x0=x0))
    switched = []
    for w in (u, u * np.linspace(1.0, 2.0, 5), 1e20 * u, 1e30 * u, 1e60 * u):
        assert ev.energy(w).hex() == energy_J(g, spec, w).hex()
        plain = float((g.mu * spec.h * w**4).sum())
        switched.append(5 * np.finfo(np.float64).tiny * 1e300 > np.finfo(np.float64).eps * plain)
    assert switched == [True, True, True, False, False]


def test_evaluator_energy_checks_a_trial_only_where_its_energy_is_not_finite():
    g, x0 = path_graph(9)
    spec = constant_spec(g)
    ev = _Evaluator(g, spec)
    for bad in (np.inf, np.nan):
        u = np.ones(g.n)
        u[4] = bad
        for energy in (ev.energy, lambda w: energy_J(g, spec, w)):
            with pytest.raises(ValueError, match="^vertex function contains non-finite entries$"):
                energy(u)
    # a finite function whose J overflows float64 gets inf, as from energy_J
    u = 1e100 * np.arange(g.n)
    with np.errstate(over="ignore"):
        assert ev.energy(u) == energy_J(g, spec, u) == math.inf


def test_a_trial_whose_energy_overflows_is_never_accepted(monkeypatch):
    # every trial after the start is scaled by 1e300: finite, but its J
    # overflows to inf, which neither the Armijo test nor the residual
    # fallback accepts, so the first line search halves past _STEP_FLOOR
    g, x0 = path_graph(12)
    dist = graph_distance(g, x0).astype(np.float64)
    spec = constant_spec(g, 4.0, 3.0, h=1.0 + dist**2)
    renormalize, energy, made, priced = _Evaluator.renormalize, _Evaluator.energy, [], []

    def huge(self, v):
        made.append(None)
        u = renormalize(self, v)
        return u if len(made) == 1 else 1e300 * u

    def recording(self, u):
        with np.errstate(over="ignore"):
            j = energy(self, u)
        priced.append((bool(np.isfinite(u).all()), j))
        return j

    monkeypatch.setattr(_Evaluator, "renormalize", huge)
    monkeypatch.setattr(_Evaluator, "energy", recording)
    _, _, trace = minimize_constrained(g, spec, SolveOptions(x0=x0))
    assert trace.stagnated and trace.iters == 1 and trace.trials == 40
    assert priced == [(True, math.inf)] * 40


@pytest.mark.parametrize("s", [2.0**-3, 2.0**0.375, 1.0, 4.0, 8.0])
def test_next_step_stays_on_the_lattice(s):
    # slope -1, so the Armijo ratio q is decrease / s
    for q in (1e-4, 0.1, 0.5, 0.74, 0.75, 1.0, 3.0):
        step = _next_step(s, q * s, -1.0)
        k = 8.0 * np.log2(step)
        assert abs(k - round(k)) < 1e-9, (s, q, step)
        assert s / 2.0 * (1 - 1e-12) <= step <= min(2.0 * s, 8.0) * (1 + 1e-12), (s, q)
    assert _next_step(s, 0.75 * s, -1.0) == pytest.approx(min(2.0 * s, 8.0), rel=1e-12)


def test_sup_bound_on_solution():
    # min(h mu) sup|u|^p <= J(u) for every feasible function
    rng = np.random.default_rng(31)
    for _ in range(10):
        g = random_connected_graph(rng, n_max=12)
        h, gg = random_positive_spec_fields(rng, g.n)
        spec = ProblemSpec(p=4.0, alpha=3.0, delta=0.3, theta=1.0, h=h, g=gg)
        res = solve(g, spec, SolveOptions(max_iters=4000, grad_tol=1e-7))
        min_hmu = float(np.min(spec.h * g.mu))
        sup = float(np.max(np.abs(res.u_bar)))
        assert min_hmu * sup ** spec.p <= res.gamma * (1.0 + 1e-10)


def test_energy_history_never_creeps_up(monkeypatch):
    g, _ = path_graph(15)
    spec = constant_spec(g, 4.0, 3.0, h=1.5)
    accepted = record_accepted_iterates(monkeypatch)
    _, gamma, trace = minimize_constrained(g, spec)
    j = np.array([jj for _, jj in accepted])
    # the start plus one iterate per line search that found a step
    assert len(j) == trace.iters + 1 - trace.stagnated
    assert j[-1] == gamma
    assert np.all(np.diff(j) <= 1e-12 * (1.0 + np.abs(j[:-1])))
    assert trace.converged


def test_descent_stagnates_when_no_trial_lowers_the_energy(monkeypatch):
    # neither the Armijo test nor the residual fallback accepts a raised J, so
    # the first line search halves its step from 1 down past _STEP_FLOOR and
    # the descent stops there, stagnated and unconverged
    g, x0 = path_graph(12)
    dist = graph_distance(g, x0).astype(np.float64)
    spec = constant_spec(g, 4.0, 3.0, h=1.0 + dist**2)
    raise_trial_energies(monkeypatch)
    res = solve(g, spec, SolveOptions(x0=x0))
    assert 2.0 ** -(res.trace.trials - 1) >= _STEP_FLOOR > 2.0**-res.trace.trials
    assert res.trace.trials == 40
    assert res.trace.stagnated and res.trace.iters == 1
    assert not res.trace.converged and not res.converged


def test_constraint_exact_on_every_result():
    g, _ = path_graph(7)
    spec = constant_spec(g, 4.0, 3.0)
    res = solve(g, spec)
    assert abs(res.trace.k_value - 1.0) <= 1e-10


def test_vanishing_g_is_infeasible():
    g, _ = path_graph(4)
    spec = constant_spec(g, 4.0, 3.0, g_coef=0.0)
    empty = r"^g vanishes on every vertex, so K\(u\) = 1 is empty; the descent's start"
    with pytest.raises(InfeasibleConstraintError, match=empty):
        minimize_constrained(g, spec)
    with pytest.raises(InfeasibleConstraintError, match=empty):
        solve(g, spec)


@pytest.mark.parametrize("n, what", [
    # the mass of 12 vertices overflows; on one vertex it is 1e308, but 3 g is inf
    (12, "the constraint mass K overflows float64"),
    (1, "the coefficient product alpha theta g overflows float64"),
])
def test_overflowing_constraint_is_infeasible(n, what):
    # no RuntimeWarning escapes (they are errors here): the error names the overflow
    g, _ = path_graph(n)
    spec = constant_spec(g, 4.0, 3.0, g_coef=1e308)
    for run in (minimize_constrained, solve):
        with pytest.raises(InfeasibleConstraintError, match=f"^{what}; the descent's start"):
            run(g, spec)
    with pytest.raises(InfeasibleConstraintError, match=f"^{what}; the uniform competitor"):
        choose_truncation_radius(g, spec, 0, 1.0)


@pytest.mark.parametrize("g_values", [[1.0, -1e3, -1e3, -1e3], [1.0, np.nan, 0.0, 0.0]])
def test_invalid_g_is_named(g_values):
    # K < 0 or K = nan: neither an overflow nor an empty set (solve's hypotheses check
    # would reject this g first; minimize_constrained does not run it)
    g, _ = path_graph(4)
    spec = ProblemSpec(p=4.0, alpha=3.0, delta=0.4, theta=1.0, h=np.ones(4), g=g_values)
    with pytest.raises(InfeasibleConstraintError, match="^g must be nonnegative and finite; "
                       "the descent's start cannot be put on K = 1$"):
        minimize_constrained(g, spec)


def test_underflowing_constraint_is_infeasible():
    # g > 0 at one vertex, but theta g rounds to 0: K = 1 is out of float64's reach
    g, _ = path_graph(3)
    spec = ProblemSpec(p=4.0, alpha=3.0, delta=0.4, theta=0.1, h=np.ones(3), g=[5e-324, 0.0, 0.0])
    with pytest.raises(InfeasibleConstraintError, match="^the constraint mass K underflows to 0 "
                       "although g > 0 somewhere; the descent's start cannot be put on K = 1$"):
        minimize_constrained(g, spec)


@pytest.mark.parametrize("h, g_values", [
    ([1.0, 0.0, -2.0, np.nan], [1.0, -1e3, np.inf, np.nan]),
    ([1e-300, 1e300, np.inf, 1.0], [1e300, 1e-300, 0.0, -0.0]),
    ([0.0, 1.0, 1.0, 1.0], [0.0, 0.0, 0.0, 0.0]),
    ([np.nan, -1.0, 0.0, np.inf], [-1.0, 1.0, np.nan, 2.0]),
])
@pytest.mark.parametrize("alpha", [3.0, 3.999, 4.0])
def test_start_is_positive_and_finite_whatever_h_and_g(monkeypatch, h, g_values, alpha):
    # the function handed to onto_constraint, before any check of h or g
    starts = []
    monkeypatch.setattr(_Evaluator, "onto_constraint", lambda ev, v, what: starts.append(v))
    g, _ = path_graph(4)
    spec = ProblemSpec(p=4.0, alpha=alpha, delta=0.4, theta=1.0, h=h, g=g_values)
    with np.errstate(all="raise"):
        _initial_iterate(_Evaluator(g, spec), SolveOptions())
    (start,) = starts
    assert np.all(np.isfinite(start) & (start > 0.0)) and start.max() <= 1.0


TINY = np.finfo(np.float64).tiny


@pytest.mark.parametrize("theta, h, g_values, expected", [
    # q = h / (theta g) = [1, 4, inf, 1, 1]: the shell where g = 0 ends the tail
    (1.0, [1.0, 4.0, 1.0, 1.0, 1.0], [1.0, 1.0, 0.0, 1.0, 1.0], [1.0, 4.0 ** (-1 / 3)] + [TINY] * 3),
    # q falls outwards, so the tail stays at 1; q_0 = inf makes every factor 1
    (1.0, [1.0, 1.0, 1.0, 1.0, 1.0], [1.0, 2.0, 3.0, 4.0, 5.0], [1.0] * 5),
    (1.0, [1.0, 1.0, 1.0, 1.0, 1.0], [0.0, 1.0, 1.0, 0.0, 1.0], [1.0] * 5),
    # theta g overflows at x0 (q_0 = 0), and g is negative or NaN further out
    (1e300, [1.0, 1.0, 1.0, 1.0, 1.0], [1e300, 1.0, -1.0, np.nan, 0.0], [1.0] + [TINY] * 4),
])
def test_p_equals_alpha_starts_at_the_inflow_of_h_over_theta_g(monkeypatch, theta, h,
                                                                g_values, expected):
    # the function handed to onto_constraint: the shell product of
    # min(1, (q_k/q_0)^(-1/(p-1))), floored, finite and in (0, 1] whatever h and g are
    starts = []
    monkeypatch.setattr(_Evaluator, "onto_constraint", lambda ev, v, what: starts.append(v))
    g, _ = path_graph(5)
    spec = ProblemSpec(p=4.0, alpha=4.0, delta=0.4, theta=theta, h=h, g=g_values)
    with np.errstate(all="raise"):
        _initial_iterate(_Evaluator(g, spec), SolveOptions())
    (start,) = starts
    np.testing.assert_allclose(start, expected, rtol=1e-15, atol=0.0)
    assert np.all(np.isfinite(start) & (start > 0.0)) and start.max() <= 1.0


def test_proportional_instances_start_at_their_eigenfunction():
    # h = 2 g with g = 1 + dist^k: h / (theta g) = 2 exactly, so the start is
    # the constant on K = 1, the first eigenfunction, and no iteration is run
    eps = np.finfo(np.float64).eps
    count = 0
    for label, graph, x0, spec, _ in proportional(0.0):
        res = solve(graph, spec, SolveOptions(x0=x0))
        count += 1
        assert res.trace.iters == 0 and res.converged and res.positive, label
        assert abs(res.eigen_factor - 2.0) <= 8.0 * eps, (label, res.eigen_factor)
        np.testing.assert_array_equal(res.u_bar, np.full(graph.n, res.u_bar[0]))
    assert count == 32


@pytest.mark.parametrize("p, alpha", [(1.0, 0.5), (1.5, 1.25), (np.nan, 3.0), (np.inf, 3.0)])
def test_invalid_p_is_named_before_the_start(p, alpha):
    # the alpha < p start takes powers 1/(p - alpha) and -1/(p - 1), so p is
    # checked first: p = 1 raises the same ValueError as any p < 2
    g, _ = path_graph(4)
    spec = constant_spec(g, p, alpha)
    with pytest.raises(ValueError, match="^p must be a real number >= 2"):
        minimize_constrained(g, spec)


@pytest.mark.parametrize("make, descent_n", [
    (lambda: path_graph(12), 12),
    (lambda: lattice_ball(2, 10), 36),  # the Z^2 ball's orbit cells
], ids=["path12", "z2r10"])
def test_constant_coefficients_start_at_the_minimizer(monkeypatch, make, descent_n):
    # for alpha < p and constant h and g the start is constant, and the constant
    # on K = 1, (theta g vol)^(-1/alpha), is the minimizer: no iteration is run
    g, x0 = make()
    spec = constant_spec(g, 4.0, 3.0, theta=1.5, h=2.5, g_coef=0.75)
    sizes = descent_sizes(monkeypatch)
    res = solve(g, spec, SolveOptions(x0=x0))
    c = (1.5 * 0.75 * g.volume()) ** (-1.0 / 3.0)
    assert res.trace.iters == 0 and res.converged
    assert sizes == [descent_n]
    np.testing.assert_allclose(res.u_bar, c, rtol=4e-16, atol=0.0)


STEEP = {
    "path30": lambda: path_graph(30),
    "path60": lambda: path_graph(60),
    "z2r40": lambda: lattice_ball(2, 40),
}


@pytest.mark.parametrize("p, alpha, graphs", [
    (4.0, 3.9, ["path60", "z2r40"]),
    (2.5, 2.25, ["path30", "path60", "z2r40"]),
])
def test_steep_h_stays_certified_positive(p, alpha, graphs):
    # h = 1 + dist^24: the profile underflows on the tail, where the floor
    # keeps the start positive; a start that was 0 there stays 0 (min u = 0),
    # and the distance bump left p = 2.5, alpha = 2.25 uncertified with min u = 0
    for name in graphs:
        g, x0 = STEEP[name]()
        dist = graph_distance(g, x0).astype(np.float64)
        spec = constant_spec(g, p, alpha, h=1.0 + dist**24)
        res = solve(g, spec, SolveOptions(x0=x0))
        assert res.converged and res.positive and res.min_u > 0.0, name


def test_options_validation():
    with pytest.raises(ValueError):
        SolveOptions(max_iters=-1)
    with pytest.raises(ValueError):
        SolveOptions(grad_tol=0.0)
    # the K-drift tolerance is a fixed constant, not an option
    with pytest.raises(TypeError):
        SolveOptions(constraint_tol=1e-10)
    assert SolveOptions().constraint_tol == 1e-10


def test_init_modes_reach_same_level():
    # the minimizer is unique for alpha < p: starts around either end and the
    # middle of the path reach one level
    g, _ = path_graph(10)
    spec = constant_spec(g, 4.0, 3.0)
    near, middle, far = (solve(g, spec, SolveOptions(x0=x0)) for x0 in (0, 5, 9))
    assert near.converged and middle.converged and far.converged
    assert middle.gamma == pytest.approx(near.gamma, rel=1e-8)
    assert far.gamma == pytest.approx(near.gamma, rel=1e-8)


def distance_spec(graph, anchor, p=4.0, alpha=3.0, delta=0.4):
    dist = graph_distance(graph, anchor).astype(np.float64)
    return ProblemSpec(
        p=p,
        alpha=alpha,
        delta=delta,
        theta=1.0,
        h=1.0 + dist ** 4,
        g=np.ones(graph.n),
    )


@pytest.mark.parametrize(
    "make",
    [lambda: path_graph(15), lambda: tree_ball(2, 4), lambda: lattice_ball(2, 6)],
    ids=["path", "tree", "z2"],
)
def test_solve_on_a_warm_distance_slot_matches_a_fresh_graph(make):
    # warm's anchor distances were asked for by its spec before the solve,
    # fresh's only by the solve's start: the answer must not depend on it
    warm, x0 = make()
    spec = distance_spec(warm, x0)
    fresh, _ = make()
    a = solve(warm, spec, SolveOptions(x0=x0))
    b = solve(fresh, spec, SolveOptions(x0=x0))
    for name in ("u_bar", "u", "residual"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    assert (a.gamma, a.lam, a.trace.iters, a.converged) == (
        b.gamma, b.lam, b.trace.iters, b.converged
    )


def test_truncation_radius_minimality():
    g, x0 = lattice_ball(1, 12)
    spec = distance_spec(g, x0)
    choice = choose_truncation_radius(g, spec, x0, epsilon=0.05)
    # recompute the tail directly at the chosen radius and one step in
    dist = graph_distance(g, x0)
    weight = spec.h ** (-spec.delta) * g.mu

    def tail(rr):
        return float(np.sum(weight[dist > rr])) ** spec.delta

    assert tail(choice.radius) <= 0.05
    assert choice.radius == 0 or tail(choice.radius - 1) > 0.05
    assert choice.tail_value == pytest.approx(tail(choice.radius), rel=1e-12)
    assert choice.k_tail_bound >= 0.0
    assert choice.epsilon == 0.05


def test_truncation_huge_epsilon_gives_zero_radius():
    g, x0 = lattice_ball(1, 6)
    spec = distance_spec(g, x0)
    choice = choose_truncation_radius(g, spec, x0, epsilon=1e12)
    assert choice.radius == 0


def test_truncation_tiny_epsilon_saturates_finite_graph():
    # a finite graph has an exactly empty tail at the eccentricity
    g, x0 = lattice_ball(1, 6)
    spec = distance_spec(g, x0)
    choice = choose_truncation_radius(g, spec, x0, epsilon=1e-200)
    assert choice.radius == int(graph_distance(g, x0).max())
    assert choice.tail_value == 0.0
    assert choice.k_tail_bound == 0.0


def test_truncation_error_carries_achieved_tail():
    g, x0 = lattice_ball(1, 10)
    spec = distance_spec(g, x0)
    with pytest.raises(TruncationError) as err:
        choose_truncation_radius(g, spec, x0, epsilon=1e-200, r_max=3)
    assert err.value.achieved_tail > 0.0


def test_truncation_radius_needs_constraint_mass():
    # g vanishes within distance 3 of the anchor: the tail test alone picks
    # R = 2, where K(u) = 1 is empty; the first ball carrying g is R = 4
    g, x0 = path_graph(30)
    dist = graph_distance(g, x0).astype(np.float64)
    spec = dataclasses.replace(
        distance_spec(g, x0), g=np.maximum(dist - 3.0, 0.0)
    )
    choice = choose_truncation_radius(g, spec, x0, epsilon=0.9)
    assert choice.radius == 4
    weight = spec.h ** (-spec.delta) * g.mu
    assert float(np.sum(weight[dist > 2])) ** spec.delta <= 0.9
    with pytest.raises(TruncationError, match="g > 0"):
        choose_truncation_radius(g, spec, x0, epsilon=0.9, r_max=3)


def test_truncation_choice_runs_one_search(monkeypatch):
    # one BFS gives both the tails and the smallest ball carrying g
    g, x0 = path_graph(30)
    dist = graph_distance(g, x0).astype(np.float64)
    spec = dataclasses.replace(
        distance_spec(g, x0), g=np.maximum(dist - 3.0, 0.0)
    )
    counts = count_calls(monkeypatch, graph_distance)
    assert choose_truncation_radius(g, spec, x0, epsilon=0.9).radius == 4
    assert counts["graph_distance"] == 1


def test_truncation_rejects_bad_arguments():
    g, x0 = lattice_ball(1, 4)
    spec = distance_spec(g, x0)
    with pytest.raises(ValueError):
        choose_truncation_radius(g, spec, x0, epsilon=0.0)
    with pytest.raises(ValueError):
        choose_truncation_radius(g, spec, g.n + 3, epsilon=1.0)


def test_tail_bound_monotone_and_vanishing():
    g, x0 = lattice_ball(1, 5)
    for p, alpha in ((4.0, 3.0), (3.0, 3.0)):
        spec = distance_spec(g, x0, p=p, alpha=alpha, delta=0.4)
        values = [k_tail_bound(g, spec, t, 2.0) for t in (0.0, 0.1, 1.0, 10.0)]
        assert values[0] == 0.0
        assert all(a < b for a, b in zip(values, values[1:]))


def test_solve_reports_hypotheses_and_trace():
    g, _ = path_graph(6)
    spec = constant_spec(g, 4.0, 3.0)
    res = solve(g, spec)
    assert res.hypotheses["passed"] is True
    assert any(c["name"] == "connected" for c in res.hypotheses["checks"])
    assert res.trace is not None
    assert res.trace.trials >= res.trace.iters


def test_solve_result_extends_its_residual_report():
    from yamabe import ResidualReport, SolveResult
    from yamabe.verify import ResidualReport as verify_report

    assert verify_report is ResidualReport and issubclass(SolveResult, ResidualReport)
    inherited = [f.name for f in dataclasses.fields(ResidualReport)]
    names = [f.name for f in dataclasses.fields(SolveResult)]
    # the report's fields come first, and SolveResult declares none of them again
    assert names[: len(inherited)] == inherited
    assert not set(inherited) & set(vars(SolveResult)["__annotations__"])
    # the descent's iters and k_value are read off the trace, not copied
    assert not {"iters", "k_value"} & set(names)
    g, _ = path_graph(6)
    spec = constant_spec(g, 4.0, 3.0)
    res = solve(g, spec)
    report = residual_report(g, spec, res.u, eigen_factor=res.eigen_factor)
    for name in inherited[1:]:
        assert getattr(res, name) == getattr(report, name), name


@pytest.mark.parametrize(
    ("coefficients", "error", "reason"),
    [
        # the start on K = 1 is about theta^(-1/alpha), so its J overflows
        (dict(theta=1e-250), InfeasibleConstraintError, "energy J of the descent's start"),
        (dict(g_coef=1e-300), InfeasibleConstraintError, "energy J of the descent's start"),
        # lam is about 1e-300, so kappa^(p-1) overflows
        (dict(h=1e-300), DegenerateConstraintError, "rescaling factor kappa"),
        # u_bar is about 1e-100, so J and with it lam underflow to 0
        (dict(g_coef=1e300), DegenerateConstraintError, "multiplier lam"),
        # p = alpha: lam is about 1e300 and theta 1e-300 or the other way round
        (dict(alpha=4.0, theta=1e-300, h=1e-300, g_coef=1e300), DegenerateConstraintError,
         "eigenvalue factor"),
        (dict(alpha=4.0, theta=1e300, h=1e300, g_coef=1e-300), DegenerateConstraintError,
         "eigenvalue factor"),
    ],
)
def test_float64_edge_instances_end_with_a_named_error(coefficients, error, reason):
    g, _ = path_graph(5)
    spec = constant_spec(g, **coefficients)
    assert hypotheses_check(g, spec)["passed"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(error, match=reason):
            solve(g, spec)


def test_uniform_competitor_with_energy_past_float64_is_infeasible():
    g, _ = path_graph(5)
    spec = constant_spec(g, theta=1e-250)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(InfeasibleConstraintError, match="J of the uniform competitor"):
            choose_truncation_radius(g, spec, 0, 0.5)


def test_kappa_past_float64_is_named_by_rescale_and_sup_bound_takes_finite_J():
    g, _ = path_graph(5)
    spec = constant_spec(g)
    # kappa = 4 / (3 lam) = 1.3e300, and kappa^3 overflows
    with pytest.raises(DegenerateConstraintError, match="kappa"):
        rescale_solution(spec, np.ones(5), 1e-300)
    # sup u^p = 1e400 leaves float64, min(h mu) sup u^p = 1e100 does not
    u = np.full(5, 1e100)
    assert _check_sup_bound(spec, u, 1e200, 1e-300) == 1e100
    with pytest.raises(ConsistencyError, match="sup bound"):
        _check_sup_bound(spec, u, 1e200, 1e-150)
