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
    constraint_K,
    dirichlet_energy,
    energy_J,
    hypotheses_check,
    integrate,
    J_gradient,
    K_derivative_action,
    minimize_constrained,
    p_gradient_norm,
    p_laplacian,
    solve,
)
from yamabe.graph import _bfs, as_vertex_function


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


@pytest.mark.parametrize("entry", [minimize_constrained, solve])
def test_nan_initial_iterate_is_rejected(entry):
    g, x0 = yamabe.path_graph(12)
    u0 = np.ones(g.n)
    u0[3] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        entry(g, _spec(g.n), SolveOptions(u0=u0, x0=x0))


def test_solve_validates_each_iterate_a_bounded_number_of_times(monkeypatch):
    # each line-search trial is checked by constraint_K and energy_J, each
    # accepted or polish-tested iterate by J_gradient; the rest of the
    # pipeline (start, multiplier, certificates) adds a fixed handful
    g, x0 = yamabe.path_graph(20)
    dist = yamabe.graph_distance(g, x0).astype(np.float64)
    spec = _spec(g.n, h=1.0 + dist**2)
    counts = count_calls(monkeypatch, as_vertex_function, energy_J, J_gradient)
    res = solve(g, spec, SolveOptions(x0=x0))
    assert res.iters > 10
    bound = 2 * counts["energy_J"] + counts["J_gradient"] + 10
    assert counts["as_vertex_function"] <= bound, dict(counts)


def test_connectivity_is_derived_once_per_graph(monkeypatch):
    # connectivity is one breadth-first search: a raw graph's from vertex 0
    counts = count_calls(monkeypatch, _bfs)
    built, _ = yamabe.path_graph(6)
    # the generator's search from its anchor sets it, so the checks find it cached
    assert counts["_bfs"] == 1
    raw = WeightedGraph(indptr=built.indptr, indices=built.indices,
                        weights=built.weights, mu=built.mu)
    for g in (built, raw, built, raw):
        hypotheses_check(g, _spec(g.n))
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
