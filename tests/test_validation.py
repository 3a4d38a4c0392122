"""Input validation happens at the public API boundary, once per call.

Every public evaluator rejects a malformed vertex function; the descent
validates each iterate a bounded number of times; connectivity is derived
once per graph object.
"""

import numpy as np
import pytest

import yamabe
from conftest import count_calls, random_connected_graph
from yamabe import (
    ProblemSpec,
    SolveOptions,
    WeightedGraph,
    choose_truncation_radius,
    constraint_K,
    dirichlet_energy,
    energy_J,
    hypotheses_check,
    integrate,
    J_gradient,
    K_derivative_action,
    lagrange_multiplier,
    minimize_constrained,
    p_gradient_norm,
    p_laplacian,
    rescale_solution,
    solve,
)
from yamabe.graph import _bfs, as_vertex_function, lattice_quotient, tree_quotient


def _spec(n, **kwargs):
    fields = dict(p=4.0, alpha=3.0, delta=0.4, h=np.ones(n), g=np.ones(n))
    fields.update(kwargs)
    return ProblemSpec(**fields)


EVALUATORS = {
    "energy_J": energy_J,
    "constraint_K": constraint_K,
    "J_gradient": J_gradient,
    "K_derivative_action(u)": lambda g, s, f: K_derivative_action(g, s, f, np.ones(g.n)),
    "K_derivative_action(v)": lambda g, s, f: K_derivative_action(g, s, np.ones(g.n), f),
    "p_laplacian": lambda g, s, f: p_laplacian(g, s.p, f),
    "p_gradient_norm": lambda g, s, f: p_gradient_norm(g, s.p, f),
    "dirichlet_energy": lambda g, s, f: dirichlet_energy(g, s.p, f),
    "integrate": lambda g, s, f: integrate(g, f),
}


@pytest.mark.parametrize("name", sorted(EVALUATORS))
def test_public_evaluators_validate_their_input(name):
    call = EVALUATORS[name]
    g = random_connected_graph(np.random.default_rng(3), n_min=5, n_max=12)
    spec = _spec(g.n)
    good = np.linspace(0.5, 1.5, g.n)
    call(g, spec, good)
    with pytest.raises(ValueError, match="shape"):
        call(g, spec, np.ones(g.n + 1))
    for bad_value in (np.nan, np.inf):
        bad = good.copy()
        bad[g.n // 2] = bad_value
        with pytest.raises(ValueError, match="non-finite"):
            call(g, spec, bad)
    # numpy would read "1" and True as 1.0, so strings and booleans are checked for
    for bad, what in (([str(x) for x in good], "string"), (good > 1.0, "boolean"),
                      ([True] + good[1:].tolist(), "boolean")):
        with pytest.raises(ValueError, match=f"^vertex function must be numeric: got a {what}$"):
            call(g, spec, bad)


@pytest.mark.parametrize("entry", [minimize_constrained, solve])
@pytest.mark.parametrize("x0", [12, -1])
def test_anchor_out_of_range_is_rejected(entry, x0):
    g, _ = yamabe.path_graph(12)
    with pytest.raises(ValueError, match="x0 out of range"):
        entry(g, _spec(g.n), SolveOptions(x0=x0))


@pytest.mark.parametrize("entry", [
    energy_J, constraint_K, J_gradient, lagrange_multiplier,
    lambda g, s, f: K_derivative_action(g, s, f, f),
    lambda g, s, f: hypotheses_check(g, s),
    lambda g, s, f: minimize_constrained(g, s),
    lambda g, s, f: solve(g, s),
])
def test_spec_on_another_vertex_count_is_rejected(entry):
    g, _ = yamabe.path_graph(6)
    with pytest.raises(ValueError, match="^problem coefficients live on 7 vertices, graph has 6$"):
        entry(g, _spec(g.n + 1), np.ones(g.n))


def test_solve_validates_each_iterate_a_bounded_number_of_times(monkeypatch):
    # each line-search trial is checked by constraint_K and energy_J, each
    # accepted or polish-tested iterate by J_gradient; the rest of the
    # pipeline (start, certificates) adds a fixed handful
    g, x0 = yamabe.path_graph(20)
    dist = yamabe.graph_distance(g, x0).astype(np.float64)
    spec = _spec(g.n, h=1.0 + dist**2)
    counts = count_calls(monkeypatch, as_vertex_function, energy_J, J_gradient)
    res = solve(g, spec, SolveOptions(x0=x0))
    assert res.trace.iters > 10
    bound = 2 * counts["energy_J"] + counts["J_gradient"] + 10
    assert counts["as_vertex_function"] <= bound, dict(counts)


def test_connectivity_is_derived_once_per_graph(monkeypatch):
    # a built graph's connectivity is its construction's certified distances
    counts = count_calls(monkeypatch, _bfs)
    built, _ = yamabe.path_graph(6)
    # the generator states its anchor's distances, so the checks read them
    assert counts["_bfs"] == 0
    raw = WeightedGraph(indptr=built.indptr, indices=built.indices,
                        weights=built.weights, mu=built.mu)
    for g in (built, raw, built, raw):
        hypotheses_check(g, _spec(g.n))
    # a raw graph keeps nothing: each of its checks searches from vertex 0
    assert counts["_bfs"] == 2
    # a hop ball is connected by construction and says so
    ball, _, _ = yamabe.truncate_ball(built, 0, 3)
    hypotheses_check(ball, _spec(ball.n))
    assert counts["_bfs"] == 2


@pytest.mark.parametrize(
    "field, value",
    [("grad_tol", True), ("grad_tol", "1e-8"), ("x0", True), ("x0", 1.5),
     ("max_iters", 2.5), ("max_iters", True), ("max_iters", "3")],
)
def test_solve_options_reject_booleans_strings_and_fractions(field, value):
    # each used to run: grad_tol=True certified after 0 iterations, x0=True
    # started at vertex 1, max_iters=2.5 ran 3 iterations
    with pytest.raises(ValueError, match=field):
        SolveOptions(**{field: value})


def test_solve_options_take_integral_floats_and_numpy_numbers():
    opts = SolveOptions(max_iters=3.0, x0=np.int64(2), grad_tol=np.float64(1e-6))
    assert (opts.max_iters, opts.x0, opts.grad_tol) == (3, 2, 1e-6)
    assert type(opts.max_iters) is int and type(opts.x0) is int and type(opts.grad_tol) is float


@pytest.mark.parametrize(
    "field, value",
    [("theta", "2"), ("theta", True), ("delta", True), ("p", np.True_), ("alpha", "3"),
     ("h", np.ones(4, dtype=bool)), ("h", [1.0, True, 1.0, 1.0]), ("g", "1"), ("g", [1, 1, 1, "1"])],
)
def test_problem_spec_rejects_booleans_and_strings(field, value):
    # theta="2" used to solve with theta = 2; True and a boolean h with 1.0
    fields = dict(p=2.5, alpha=2.25, delta=0.4, theta=1.0, h=np.ones(4), g=np.ones(4))
    fields[field] = value
    with pytest.raises(ValueError, match=f"^{field} must be"):
        ProblemSpec(**fields)


def test_problem_spec_takes_numpy_numbers_and_integer_lists():
    spec = ProblemSpec(p=np.int64(4), alpha=np.float32(3.0), delta=0.4, h=[1, 2, 3], g=(1, 1, 1))
    assert (spec.p, spec.alpha, spec.theta) == (4.0, 3.0, 1.0)
    assert type(spec.p) is float
    assert spec.h.dtype == np.float64 and spec.h.tolist() == [1.0, 2.0, 3.0]


@pytest.mark.parametrize("h, g", [(np.ones((2, 2)), np.ones((2, 2))), (np.ones(4), np.ones((4, 1))),
                                  (np.ones(4), np.ones(5)), (np.ones(3), np.ones(4))])
def test_problem_spec_rejects_misshapen_coefficients(h, g):
    with pytest.raises(ValueError, match="^h and g must"):
        ProblemSpec(p=4.0, alpha=3.0, delta=0.4, h=h, g=g)


@pytest.mark.parametrize("u_bar, lam, match", [
    (["1", "2", "3"], 2.0, "^u_bar must be numeric: got a string$"),
    (np.ones(3, dtype=bool), 2.0, "^u_bar must be numeric: got a boolean$"),
    ([1.0, True, 1.0], 2.0, "^u_bar must be numeric: got a boolean$"),
    (np.ones(7), 2.0, r"^u_bar has shape \(7,\), expected \(3,\)$"),
    (np.ones((3, 1)), 2.0, r"^u_bar has shape \(3, 1\), expected \(3,\)$"),
    ([1.0, np.nan, 1.0], 2.0, "^u_bar contains non-finite entries$"),
    ([1.0, 1.0, np.inf], 2.0, "^u_bar contains non-finite entries$"),
    (np.ones(3), True, "^lam must be a number, got True$"),
    (np.ones(3), "2", "^lam must be a number, got '2'$"),
    (np.ones(3), np.nan, "^multiplier lam must be positive and finite$"),
])
def test_rescale_solution_rejects_malformed_input(u_bar, lam, match):
    # each used to return an array: numpy read "1" and True as 1.0 and
    # broadcast any length
    spec = _spec(3)
    with pytest.raises(ValueError, match=match):
        rescale_solution(spec, u_bar, lam)


def _truncation_problem():
    g, x0 = yamabe.lattice_ball(1, 6)
    dist = yamabe.graph_distance(g, x0).astype(np.float64)
    return g, x0, _spec(g.n, h=1.0 + dist**4)


@pytest.mark.parametrize("arg, value", [
    ("epsilon", True), ("epsilon", "0.5"), ("r_max", 2.5), ("r_max", True), ("r_max", "4"),
    ("x0", True), ("x0", 1.5),
])
def test_truncation_choice_rejects_booleans_strings_and_fractions(arg, value):
    # epsilon=True used to be taken as 1 and kept in TruncationChoice.epsilon;
    # r_max=2.5 and epsilon="0.5" raised TypeError
    g, x0, spec = _truncation_problem()
    args = dict(x0=x0, epsilon=0.5, r_max=None)
    args[arg] = value
    with pytest.raises(ValueError, match=f"^{arg} must be"):
        choose_truncation_radius(g, spec, **args)


def test_truncation_choice_rejects_a_negative_r_max():
    g, x0, spec = _truncation_problem()
    with pytest.raises(ValueError, match="^r_max must be nonnegative$"):
        choose_truncation_radius(g, spec, x0, 0.5, r_max=-1)


def test_truncation_choice_takes_integral_floats_and_numpy_numbers():
    g, x0, spec = _truncation_problem()
    want = choose_truncation_radius(g, spec, x0, 0.5, r_max=6)
    got = choose_truncation_radius(g, spec, np.int64(x0), np.float32(0.5), r_max=6.0)
    assert got == want and type(got.epsilon) is float


@pytest.mark.parametrize("build, match", [
    (lambda: yamabe.lattice_ball(2, True), "^radius must be an integer, got True$"),
    (lambda: yamabe.lattice_ball(2, 2.5), "^radius must be an integer, got 2.5$"),
    (lambda: yamabe.lattice_ball(2.5, 3), "^d must be an integer, got 2.5$"),
    (lambda: yamabe.lattice_ball("2", 3), "^d must be an integer, got '2'$"),
    (lambda: yamabe.tree_ball(2, 2.5), "^depth must be an integer, got 2.5$"),
    (lambda: yamabe.tree_ball(True, 3), "^branching must be an integer, got True$"),
    (lambda: yamabe.path_graph(2.5), "^n must be an integer, got 2.5$"),
    (lambda: yamabe.cycle_graph(True), "^n must be an integer, got True$"),
    (lambda: lattice_quotient(2, 2.5), "^radius must be an integer, got 2.5$"),
    (lambda: lattice_quotient(False, 2), "^d must be an integer, got False$"),
    (lambda: tree_quotient(2.5, 2), "^branching must be an integer, got 2.5$"),
    (lambda: tree_quotient(2, "3"), "^depth must be an integer, got '3'$"),
])
def test_generators_reject_booleans_strings_and_fractions(build, match):
    # lattice_ball(2, True) built radius 1; 2.5 raised numpy's TypeError, and
    # lattice_quotient(2, 2.5) a CSR slot without its mirror
    with pytest.raises(ValueError, match=match):
        build()


@pytest.mark.parametrize("build, match", [
    (lambda: yamabe.tree_ball(2, -1), "^depth must be >= 0$"),
    # 2^1100 vertices on the last level: its cell's measure is no float64
    (lambda: tree_quotient(2, 1100), "^the cells' measure overflows float64$"),
])
def test_generators_reject_sizes_out_of_range(build, match):
    with pytest.raises(ValueError, match=match):
        build()


@pytest.mark.parametrize("build, sizes", [
    (yamabe.lattice_ball, (2, 3)),
    (yamabe.tree_ball, (3, 2)),
    (lattice_quotient, (3, 2)),
    (tree_quotient, (2, 4)),
])
def test_generators_take_integral_floats_and_numpy_integers(build, sizes):
    want = build(*sizes)[0]
    got = build(float(sizes[0]), np.int64(sizes[1]))[0]
    for name in ("indptr", "indices", "weights", "mu"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    assert yamabe.path_graph(np.int32(4))[0].n == yamabe.cycle_graph(4.0)[0].n == 4


@pytest.mark.parametrize("tail_value, gamma_est, match", [
    (-1.0, 1.0, r"^tail_value must be nonnegative, got -1.0$"),
    (np.nan, 1.0, r"^tail_value must be nonnegative, got nan$"),
    (True, 1.0, r"^tail_value must be a number, got True$"),
    ("0.5", 1.0, r"^tail_value must be a number, got '0.5'$"),
    (0.5, -2.0, r"^gamma_est must be nonnegative, got -2.0$"),
    (0.5, False, r"^gamma_est must be a number, got False$"),
])
def test_k_tail_bound_rejects_bad_scalars(tail_value, gamma_est, match):
    # a negative tail gave the complex number (1.54+0.68j), and True was taken as 1
    g, x0, spec = _truncation_problem()
    with pytest.raises(ValueError, match=match):
        yamabe.k_tail_bound(g, spec, tail_value, gamma_est)
    assert yamabe.k_tail_bound(g, spec, np.float32(0.5), 1) == yamabe.k_tail_bound(g, spec, 0.5, 1.0)


@pytest.mark.parametrize("factor, match", [
    (True, r"^eigen_factor must be a number, got True$"),
    ("x", r"^eigen_factor must be a number, got 'x'$"),
    (np.nan, r"^eigen_factor must be positive and finite, got nan$"),
    (np.inf, r"^eigen_factor must be positive and finite, got inf$"),
    (0.0, r"^eigen_factor must be positive and finite, got 0.0$"),
    (-1.0, r"^eigen_factor must be positive and finite, got -1.0$"),
])
def test_residual_report_rejects_bad_eigen_factors(factor, match):
    # True was taken as 1, nan gave a report of nans and "x" a UFuncTypeError
    g, x0, spec = _truncation_problem()
    with pytest.raises(ValueError, match=match):
        yamabe.residual_report(g, spec, np.ones(g.n), eigen_factor=factor)


@pytest.mark.parametrize("x0, radius, match", [
    (0, 2.5, r"^radius must be an integer, got 2.5$"),
    (0, True, r"^radius must be an integer, got True$"),
    (True, 2, r"^x0 must be an integer, got True$"),
    (0.5, 2, r"^x0 must be an integer, got 0.5$"),
])
def test_truncate_ball_rejects_booleans_and_fractions(x0, radius, match):
    # radius 2.5 and True were taken as a cut at 2 and at 1
    g, _ = yamabe.path_graph(6)
    with pytest.raises(ValueError, match=match):
        yamabe.truncate_ball(g, x0, radius)
    ball, anchor, kept = yamabe.truncate_ball(g, np.int64(1), 2.0)
    assert (ball.n, anchor) == (4, 1) and kept.tolist() == [0, 1, 2, 3]


@pytest.mark.parametrize("trials, seed, match", [
    (2.5, 0, r"^trials must be an integer, got 2.5$"),
    (True, 0, r"^trials must be an integer, got True$"),
    ("3", 0, r"^trials must be an integer, got '3'$"),
    (3, 2.5, r"^seed must be an integer, got 2.5$"),
    (3, "7", r"^seed must be an integer, got '7'$"),
    (3, True, r"^seed must be an integer, got True$"),
    (3, -1, r"^seed must be >= 0, got -1$"),
])
def test_inequality_suite_rejects_bad_trials_and_seeds(trials, seed, match):
    # seed=True was written to the report as "seed": true; the fractions and
    # strings raised numpy's or a TypeError, and -1 numpy's "expected non-negative integer"
    g, _ = yamabe.path_graph(5)
    with pytest.raises(ValueError, match=match):
        yamabe.inequality_suite(g, _spec(g.n), trials, seed)


def test_inequality_suite_takes_integral_floats_and_numpy_integers():
    g, _ = yamabe.path_graph(5)
    want = yamabe.inequality_suite(g, _spec(g.n), 7, 3)
    got = yamabe.inequality_suite(g, _spec(g.n), 7.0, np.int64(3))
    assert got == want and type(got["seed"]) is int and type(got["trials"]) is int
