"""Constrained minimization, multiplier extraction, rescaling, truncation."""

import dataclasses

import numpy as np
import pytest

from conftest import (
    count_calls,
    random_connected_graph,
    random_positive_spec_fields,
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
from test_kernels import every_builder
from yamabe._kernels import grad_power_kernel
from yamabe.functionals import _Gprime_field
from yamabe.solver import _LAGRANGIAN_FLOOR, _Evaluator, _next_step


def make_spec(graph, p, alpha, delta=0.4, theta=1.0, h=1.0, g_coef=1.0):
    return ProblemSpec(
        p=p,
        alpha=alpha,
        delta=delta,
        theta=theta,
        h=np.broadcast_to(np.float64(h), (graph.n,)).copy(),
        g=np.broadcast_to(np.float64(g_coef), (graph.n,)).copy(),
    )


def test_single_vertex_closed_form():
    g = WeightedGraph.from_edges(1, [])
    spec = make_spec(g, 4.0, 3.0)
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
    assert res.iters == 0


def test_symmetric_pair_closed_form():
    # two equal vertices: the symmetric profile c = 2^{-1/3} is optimal,
    # giving gamma = 2 c^4 = 2^{-1/3}
    g = WeightedGraph.from_edges(2, [(0, 1, 1.0)])
    spec = make_spec(g, 4.0, 3.0)
    res = solve(g, spec)
    assert res.converged
    assert res.gamma == pytest.approx(2.0 ** (-1.0 / 3.0), rel=1e-9)
    np.testing.assert_allclose(res.u_bar, [2.0 ** (-1.0 / 3.0)] * 2, rtol=1e-7)


def test_minimizer_beats_random_competitors():
    g, _ = path_graph(8)
    spec = make_spec(g, 4.0, 3.0)
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
    spec = make_spec(g, 4.0, 3.0, h=2.0)
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
    spec = make_spec(g, 4.0, 3.0)
    res = solve(g, spec)
    with pytest.raises(ConsistencyError):
        lagrange_multiplier(g, spec, 2.0 * res.u_bar)


def test_multiplier_degenerate_input():
    g, _ = path_graph(5)
    spec = make_spec(g, 4.0, 3.0)
    with pytest.raises(DegenerateConstraintError):
        lagrange_multiplier(g, spec, np.zeros(g.n))


def test_theta_scaling_invariance():
    # the rescaled solution u and its residual are invariant under
    # theta -> c theta; only the constrained level gamma moves
    g, _ = path_graph(12)
    base = make_spec(g, 4.0, 3.0, theta=1.0)
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
    spec = make_spec(g, 3.0, 3.0, h=2.0)
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
    counts = count_calls(monkeypatch, energy_J)
    _, _, trace = minimize_constrained(g, spec, SolveOptions(x0=x0))
    assert trace.converged
    # one energy pass for the start, then one per trial
    assert counts["energy_J"] == 1 + trace.trials
    assert trace.trials / trace.iters <= 1.5


@pytest.mark.parametrize("max_iters", [0, 4, 20000])
@pytest.mark.parametrize("alpha", [3.0, 4.0])
def test_descent_calls_the_gradient_and_the_constraint_once(monkeypatch, max_iters, alpha):
    # the descent evaluates its own iterates: J_gradient runs on the first
    # one and constraint_K on the last, however many iterations run between
    g, x0 = path_graph(20)
    dist = graph_distance(g, x0).astype(np.float64)
    spec = ProblemSpec(p=4.0, alpha=alpha, delta=0.4, h=1.0 + dist**2, g=np.ones(g.n))
    counts = count_calls(monkeypatch, J_gradient, constraint_K, energy_J)
    _, _, trace = minimize_constrained(g, spec, SolveOptions(x0=x0, max_iters=max_iters))
    assert trace.iters == max_iters or trace.converged and trace.iters > 4
    assert counts == {"J_gradient": 1, "constraint_K": 1, "energy_J": 1 + trace.trials}


@pytest.mark.parametrize("alpha, theta", [(3.0, 1.0), (3.0, 2.5), (4.0, 2.5)])
def test_solve_evaluates_nothing_after_the_descent(monkeypatch, alpha, theta):
    # lam = p J / (alpha K) and k_value are the descent's last J and K:
    # solve adds no energy_J, constraint_K or lagrange_multiplier call
    g, x0 = path_graph(20)
    dist = graph_distance(g, x0).astype(np.float64)
    spec = ProblemSpec(p=4.0, alpha=alpha, delta=0.4, theta=theta, h=1.0 + dist**2, g=np.ones(g.n))
    counts = count_calls(monkeypatch, J_gradient, constraint_K, energy_J, lagrange_multiplier)
    res = solve(g, spec, SolveOptions(x0=x0))
    assert counts["lagrange_multiplier"] == 0
    assert counts == {"J_gradient": 1, "constraint_K": 1, "energy_J": 1 + res.trace.trials}
    # the public multiplier gives the same bits from its own J and K of u_bar
    assert res.k_value == res.trace.k_value == constraint_K(g, spec, res.u_bar)
    assert res.gamma == energy_J(g, spec, res.u_bar)
    assert res.lam == lagrange_multiplier(g, spec, res.u_bar)
    assert res.lam == spec.p * res.gamma / (alpha * res.k_value)


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
    # maximum passes on its iterates, frozen and >= 0 with exact zeros; its
    # constraint mass, residual and curvature must keep every bit
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
            assert not u.flags.writeable and (u == 0.0).any()
            assert u.tobytes() == (plus * constraint_K(g, spec, plus) ** (-1.0 / alpha)).tobytes()
            assert ev.mass(u) == constraint_K(g, spec, u)
            j = energy_J(g, spec, u)
            r, lam = ev.residual(u, j)
            assert lam == p * j / alpha
            assert r.tobytes() == (J_gradient(g, spec, u) - lam * _Gprime_field(spec, u)).tobytes()
            assert ev.residual(u, j, J_gradient(g, spec, u))[0].tobytes() == r.tobytes()
            for mult in (lam, 10.0 * lam):  # the larger puts more vertices on the Lagrangian's floor
                assert ev.curvature(u, mult).tobytes() == curvature_reference(g, spec, u, mult).tobytes()


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
    spec = make_spec(g, 4.0, 3.0, h=1.5)
    accepted = record_accepted_iterates(monkeypatch)
    _, gamma, trace = minimize_constrained(g, spec)
    j = np.array([jj for _, jj in accepted])
    # the start plus one iterate per line search that found a step
    assert len(j) == trace.iters + 1 - trace.stagnated
    assert j[-1] == gamma
    assert np.all(np.diff(j) <= 1e-12 * (1.0 + np.abs(j[:-1])))
    assert trace.converged


def test_constraint_exact_on_every_result():
    g, _ = path_graph(7)
    spec = make_spec(g, 4.0, 3.0)
    res = solve(g, spec)
    assert abs(res.k_value - 1.0) <= 1e-10


def test_vanishing_g_is_infeasible():
    g, _ = path_graph(4)
    spec = make_spec(g, 4.0, 3.0, g_coef=0.0)
    empty = r"^g vanishes on every vertex, so K\(u\) = 1 is empty; the start bump"
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
    spec = make_spec(g, 4.0, 3.0, g_coef=1e308)
    for run in (minimize_constrained, solve):
        with pytest.raises(InfeasibleConstraintError, match=f"^{what}; the start bump"):
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
                       "the start bump cannot be put on K = 1$"):
        minimize_constrained(g, spec)


def test_underflowing_constraint_is_infeasible():
    # g > 0 at one vertex, but theta g rounds to 0: K = 1 is out of float64's reach
    g, _ = path_graph(3)
    spec = ProblemSpec(p=4.0, alpha=3.0, delta=0.4, theta=0.1, h=np.ones(3), g=[5e-324, 0.0, 0.0])
    with pytest.raises(InfeasibleConstraintError, match="^the constraint mass K underflows to 0 "
                       "although g > 0 somewhere; the start bump cannot be put on K = 1$"):
        minimize_constrained(g, spec)


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
    # the minimizer is unique for alpha < p: bumps around either end and the
    # middle of the path reach one level
    g, _ = path_graph(10)
    spec = make_spec(g, 4.0, 3.0)
    bump, middle, far = (solve(g, spec, SolveOptions(x0=x0)) for x0 in (0, 5, 9))
    assert bump.converged and middle.converged and far.converged
    assert middle.gamma == pytest.approx(bump.gamma, rel=1e-8)
    assert far.gamma == pytest.approx(bump.gamma, rel=1e-8)


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
    # the spec's search leaves warm's slot at the anchor, so the start reuses
    # it; the fresh copy's start searches (or reuses its construction's search)
    warm, x0 = make()
    spec = distance_spec(warm, x0)
    fresh, _ = make()
    a = solve(warm, spec, SolveOptions(x0=x0))
    b = solve(fresh, spec, SolveOptions(x0=x0))
    for name in ("u_bar", "u", "residual"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    assert (a.gamma, a.lam, a.iters, a.converged) == (b.gamma, b.lam, b.iters, b.converged)


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
    spec = make_spec(g, 4.0, 3.0)
    res = solve(g, spec)
    assert res.hypotheses["passed"] is True
    assert any(c["name"] == "connected" for c in res.hypotheses["checks"])
    assert res.trace is not None
    assert res.trace.iters == res.iters
    assert res.trace.trials >= res.iters
