"""Hypothesis checks, residual and positivity certificates, inequality suite."""

import json

import numpy as np
import pytest

import inequality_reference
from conftest import count_calls
from yamabe import (
    DegenerateConstraintError,
    GraphFamily,
    HypothesisError,
    InfeasibleConstraintError,
    ProblemFamily,
    ProblemSpec,
    SolveOptions,
    WeightedGraph,
    choose_truncation_radius,
    exhaustion_study,
    graph_distance,
    graph_to_dict,
    hypotheses_check,
    inequality_suite,
    lattice_ball,
    path_graph,
    positivity_certificate,
    residual_report,
    solve,
)
from yamabe import verify
from yamabe.graph import _bfs, cycle_graph, lattice_quotient, tree_ball, tree_quotient


def spec_on(graph, p=4.0, alpha=3.0, delta=0.4, theta=1.0, h=1.0, g_coef=1.0):
    return ProblemSpec(
        p=p,
        alpha=alpha,
        delta=delta,
        theta=theta,
        h=np.broadcast_to(np.float64(h), (graph.n,)).copy(),
        g=np.broadcast_to(np.float64(g_coef), (graph.n,)).copy(),
    )


def test_hypotheses_pass_with_full_report():
    g, _ = path_graph(5)
    report = hypotheses_check(g, spec_on(g))
    assert report["passed"] is True
    names = [c["name"] for c in report["checks"]]
    assert names == [
        "p_range",
        "min_h",
        "min_hmu",
        "g_nonneg",
        "delta_range",
        "alpha_range",
        "theta_positive",
        "h_delta_integral",
        "connected",
    ]
    assert all(c["passed"] for c in report["checks"])


def test_hypotheses_alpha_too_small():
    g, _ = path_graph(3)
    with pytest.raises(HypothesisError) as err:
        hypotheses_check(g, spec_on(g, alpha=2.0))
    assert err.value.name == "alpha_range"
    assert "alpha must exceed 2" in str(err.value)


def test_hypotheses_alpha_exceeds_p():
    g, _ = path_graph(3)
    with pytest.raises(HypothesisError) as err:
        hypotheses_check(g, spec_on(g, p=3.0, alpha=3.5))
    assert err.value.name == "alpha_range"
    assert "must not exceed p" in str(err.value)


def test_hypotheses_delta_range():
    g, _ = path_graph(3)
    # delta = 1/(p-2) sits exactly on the excluded boundary
    with pytest.raises(HypothesisError) as err:
        hypotheses_check(g, spec_on(g, p=4.0, delta=0.5))
    assert err.value.name == "delta_range"
    with pytest.raises(HypothesisError):
        hypotheses_check(g, spec_on(g, delta=0.0))
    # for p = 2 only positivity of delta is required: a large delta gets
    # past delta_range and the failure lands on alpha instead, since no
    # alpha satisfies 2 < alpha <= 2
    with pytest.raises(HypothesisError) as err:
        hypotheses_check(g, spec_on(g, p=2.0, alpha=2.5, delta=5.0))
    assert err.value.name == "alpha_range"


def test_hypotheses_other_failures():
    g, _ = path_graph(3)
    cases = [
        (dict(p=1.5), "p_range"),
        (dict(h=0.0), "min_h"),
        (dict(theta=0.0), "theta_positive"),
        (dict(g_coef=-1.0), "g_nonneg"),
    ]
    for kwargs, name in cases:
        with pytest.raises(HypothesisError) as err:
            hypotheses_check(g, spec_on(g, **kwargs))
        assert err.value.name == name


def test_residual_exact_zero_cases():
    g = WeightedGraph.from_edges(1, [])
    rep = residual_report(g, spec_on(g), np.ones(1))
    # -0 + 1*1 - 1*1 = 0 exactly
    assert rep.residual_sup == 0.0
    g2, _ = path_graph(4)
    rep = residual_report(g2, spec_on(g2), np.zeros(4))
    assert rep.residual_sup == 0.0


def test_residual_grows_when_perturbed():
    g, _ = path_graph(10)
    spec = spec_on(g)
    res = solve(g, spec)
    assert res.converged
    at_solution = residual_report(g, spec, res.u).residual_sup
    perturbed = residual_report(g, spec, res.u + 0.01).residual_sup
    assert at_solution <= 1e-7
    assert perturbed > 100.0 * at_solution


def test_residual_uses_eigen_factor():
    # p = alpha with h = 2: the equation balances only with the reported
    # eigenvalue factor, not with factor 1
    g, _ = path_graph(8)
    spec = spec_on(g, p=3.0, alpha=3.0, h=2.0)
    res = solve(g, spec)
    assert res.converged
    with_factor = residual_report(g, spec, res.u, eigen_factor=res.eigen_factor)
    without = residual_report(g, spec, res.u, eigen_factor=1.0)
    assert with_factor.residual_sup <= 1e-7
    assert without.residual_sup > 1e-2


def test_relative_residual_vanishes_on_the_constant_oracle():
    # h = g = 1: the rescaled solution is the constant 1, where the vertex
    # equation balances exactly
    g, x0 = lattice_ball(2, 5)
    spec = spec_on(g)
    assert residual_report(g, spec, np.ones(g.n)).residual_rel_sup == 0.0
    res = solve(g, spec, SolveOptions(x0=x0))
    assert res.converged
    assert res.residual_rel_sup <= 1e-7


def test_relative_residual_sees_a_wrong_tail():
    # steep h makes the far end of the solution tiny; scaling it by 1e-3
    # keeps the absolute residual within the certificate, but the far
    # vertex's equation is now dominated by the pull of its neighbour
    g, x0 = path_graph(30)
    dist = graph_distance(g, x0).astype(np.float64)
    spec = spec_on(g, h=1.0 + dist**4)
    res = solve(g, spec, SolveOptions(x0=x0))
    assert res.converged and res.residual_rel_sup < 1e-2
    u = res.u.copy()
    u[dist == dist.max()] *= 1e-3
    wrong = residual_report(g, spec, u)
    assert wrong.residual_sup <= 1e-7
    assert wrong.residual_rel_sup >= 0.99


def test_positivity_strictly_positive():
    g, _ = path_graph(4)
    cert = positivity_certificate(g, np.full(4, 2.0))
    assert cert.passed
    assert cert.min_u == 2.0


def test_positivity_flags_zero_with_positive_neighbor():
    g = WeightedGraph.from_edges(2, [(0, 1, 1.0)])
    cert = positivity_certificate(g, np.array([0.0, 1.0]))
    assert not cert.passed
    assert cert.min_u == 0.0


def test_positivity_negative_minimum():
    g = WeightedGraph.from_edges(2, [(0, 1, 1.0)])
    cert = positivity_certificate(g, np.array([-1.0, 1.0]))
    assert not cert.passed
    assert cert.min_u == -1.0


def test_inequality_suite_passes():
    g, _ = path_graph(6)
    report = inequality_suite(g, spec_on(g), trials=200, seed=7)
    assert report["passed"] is True
    assert report["seed"] == 7
    assert report["trials"] == 200
    assert set(report["inequalities"]) == {
        "elementary",
        "gj_pointwise",
        "holder_embedding",
        "bd_sup_bound",
    }
    for state in report["inequalities"].values():
        assert state["violations"] == 0
        assert state["max_ratio"] <= 1.0 + 1e-9


def test_inequality_suite_deterministic():
    g, _ = path_graph(6)
    a = inequality_suite(g, spec_on(g), trials=100, seed=42)
    b = inequality_suite(g, spec_on(g), trials=100, seed=42)
    assert a == b


def test_inequality_suite_rejects_p2():
    # 2 < alpha <= p forces p > 2; two of the inequalities need it
    g, _ = path_graph(4)
    spec = spec_on(g, p=2.0, alpha=2.0 + 1e-6, delta=0.7)
    with pytest.raises(ValueError, match="p > 2"):
        inequality_suite(g, spec, trials=50, seed=1)
    report = inequality_suite(g, spec_on(g, p=2.5, alpha=2.5), trials=50, seed=1)
    assert report["passed"]
    assert all("note" not in state for state in report["inequalities"].values())


def test_inequality_suite_rejects_bad_trials():
    g, _ = path_graph(4)
    with pytest.raises(ValueError):
        inequality_suite(g, spec_on(g), trials=0, seed=0)


SUITE_GRAPHS = {
    "path6": lambda: path_graph(6),
    "cycle20": lambda: cycle_graph(20),
    "z2_r10": lambda: lattice_ball(2, 10),
    "tree_b2_d6": lambda: tree_ball(2, 6),
    # 3,281 vertices: four trials per block, so 1,000 trials run 250 blocks
    "z2_r40": lambda: lattice_ball(2, 40),
    "loop_mu": lambda: (WeightedGraph.from_edges(
        6,
        [(0, 1, 1.0), (1, 2, 2.5), (2, 2, 0.5), (2, 3, 1.0), (3, 4, 0.75), (4, 5, 3.0), (0, 5, 1.5)],
        mu=[1.0, 2.0, 0.3, 1.5, 1.1, 2.5],
    ), 0),
}


@pytest.mark.parametrize("name, p", [
    ("path6", 4.0), ("cycle20", 2.5), ("z2_r10", 4.0), ("tree_b2_d6", 6.0), ("z2_r40", 4.0), ("loop_mu", 3.0),
])
def test_inequality_suite_in_blocks_matches_one_trial_at_a_time(name, p):
    # the same report, bit for bit, on either side of every block boundary; h
    # is no integer, so that mu h |u|^p rounds by the order of its products
    g, x0 = SUITE_GRAPHS[name]()
    dist = graph_distance(g, x0).astype(np.float64)
    h = (1.0 + dist**4) * np.exp(0.1 * np.sin(np.arange(g.n)))
    spec = ProblemSpec(p=p, alpha=min(p, 3.0), delta=min(0.4, 0.9 / (p - 2.0)), h=h, g=np.ones(g.n))
    rows = verify._BLOCK_VALUES // g.n
    for trials in sorted({1, 7, 1000, rows - 1, rows, rows + 1} - {0}):
        for seed in (0, 1, 2026):
            got = inequality_suite(g, spec, trials, seed)
            want = inequality_reference.reference_inequality_suite(g, spec, trials, seed)
            assert got == want, (trials, seed)
            assert json.dumps(got) == json.dumps(want)


def test_ratio_update_counts_each_row_as_one_update():
    # NaN ratios (inf / inf), rows without a positive rhs and violations,
    # against one call of the one-trial-at-a-time update per row
    rng = np.random.default_rng(5)
    lhs = rng.uniform(0.0, 2.0, (40, 9))
    rhs = rng.uniform(-0.5, 2.0, (40, 9))
    lhs[3, 4] = rhs[3, 4] = np.inf
    lhs[17, 0] = rhs[17, 0] = np.inf
    rhs[8] = -1.0
    lhs[30, 2], rhs[30, 2] = np.inf, 1.0
    want = {"violations": 0, "max_ratio": 0.0}
    got = dict(want)
    with np.errstate(invalid="ignore"):
        for row_l, row_r in zip(lhs, rhs):
            inequality_reference._ratio_update(want, row_l, row_r)
        verify._ratio_update(got, lhs, rhs)
    assert got == want and want["violations"] > 0 and want["max_ratio"] == np.inf


def lattice_family():
    family = GraphFamily("lattice_zd_ball", {"d": 1})
    problem = ProblemFamily(p=4.0, alpha=3.0, delta=0.4, h="1 + dist^4", g=1.0)
    return family, problem


def test_exhaustion_gamma_nonincreasing():
    family, problem = lattice_family()
    study = exhaustion_study(
        family, problem, (4, 8, 16), SolveOptions(grad_tol=1e-9)
    )
    rows = study["rows"]
    assert [row["R"] for row in rows] == [4, 8, 16]
    gammas = [row["gamma"] for row in rows]
    assert all(b <= a + 1e-9 for a, b in zip(gammas, gammas[1:]))
    assert all(row["converged"] for row in rows)
    bounds = [row["tail_bound"] for row in rows]
    assert all(b < a for a, b in zip(bounds, bounds[1:]))
    assert study["universe_radius"] == 32
    assert len(study["gaps"]) == 2


def test_exhaustion_certifies_monotonicity_failure():
    # dropping the crossing edges means zero-extension is not isometric,
    # so at very small radii the energy level can genuinely rise with R;
    # the study must refuse to certify such a run
    from yamabe import ConsistencyError

    family, problem = lattice_family()
    with pytest.raises(ConsistencyError):
        exhaustion_study(family, problem, (2, 4))


def test_exhaustion_monotonicity_skips_unconverged_balls():
    # two iterations leave every ball unconverged; their gammas are only
    # upper bounds of the ball levels and rise from R = 8 to R = 16, which
    # used to raise ConsistencyError although no ball was certified
    family = GraphFamily("path", {"n": 20})
    problem = ProblemFamily(p=4.0, alpha=3.0, delta=0.4, h="1 + dist^2", g=1.0)
    study = exhaustion_study(family, problem, (4, 8, 16, 32), SolveOptions(max_iters=2))
    rows = study["rows"]
    assert [row["R"] for row in rows] == [4, 8, 16, 32]
    assert not any(row["converged"] for row in rows)
    assert rows[2]["gamma"] > rows[1]["gamma"]


def test_competitor_without_constraint_mass_is_infeasible():
    # g vanishes on the radius-2 ball of the sweep but not on the universe;
    # the study and the truncation choice raise the same error class
    family = GraphFamily("path", {"n": 30})
    problem = ProblemFamily(p=4.0, alpha=3.0, delta=0.4, h="1 + dist^2", g="maximum(dist - 3, 0)")
    with pytest.raises(InfeasibleConstraintError, match="uniform competitor on the radius-2 ball"):
        exhaustion_study(family, problem, (2, 4))
    g, _ = path_graph(5)
    with pytest.raises(InfeasibleConstraintError, match="uniform competitor on the whole graph"):
        choose_truncation_radius(g, spec_on(g, g_coef=0.0), 0, 1.0)


def test_exhaustion_saturates_on_fixed_graph():
    # a fixed-size family ignores the radius, so once the ball covers the
    # whole graph the energy is exactly constant
    family = GraphFamily("path", {"n": 5})
    problem = ProblemFamily(p=4.0, alpha=3.0, delta=0.4)
    study = exhaustion_study(family, problem, (4, 6), universe_radius=8)
    gammas = [row["gamma"] for row in study["rows"]]
    assert gammas[1] == pytest.approx(gammas[0], abs=1e-15)


def test_exhaustion_single_radius():
    family, problem = lattice_family()
    study = exhaustion_study(family, problem, [3])
    assert len(study["rows"]) == 1
    assert study["gaps"] == []


def test_exhaustion_hypothesis_error_propagates():
    family = GraphFamily("lattice_zd_ball", {"d": 1})
    problem = ProblemFamily(p=3.0, alpha=4.0, delta=0.4)
    with pytest.raises(HypothesisError) as err:
        exhaustion_study(family, problem, (4, 8))
    assert err.value.name == "alpha_range"


@pytest.mark.parametrize(
    "n, h",
    [(30, "dist"), (40, "maximum(12 - dist, 0)")],
    ids=["h_zero_at_anchor", "h_zero_beyond_every_ball"],
)
def test_universe_hypotheses_come_before_tails(n, h):
    # h vanishes on the universe, so no tail bound may be computed from it;
    # in the second case it vanishes on neither ball of the study
    family = GraphFamily("path", {"n": n})
    problem = ProblemFamily(p=4.0, alpha=3.0, delta=0.4, h=h)
    with pytest.raises(HypothesisError) as err:
        exhaustion_study(family, problem, (4, 8))
    assert err.value.name == "min_h"
    g, x0 = family.materialize()
    with pytest.raises(HypothesisError) as err:
        choose_truncation_radius(g, problem.on(g, x0), x0, 0.5)
    assert err.value.name == "min_h"


def test_exhaustion_rejects_x0():
    # each ball starts at its own anchor; x0 = 7 used to be replaced by it
    # silently, giving rows identical to the default's
    family = GraphFamily("path", {"n": 40})
    problem = ProblemFamily(p=4.0, alpha=3.0, delta=0.4, h="1 + dist^2", g=1.0)
    with pytest.raises(ValueError, match="x0 must keep its default"):
        exhaustion_study(family, problem, (4, 8), SolveOptions(x0=7))
    study = exhaustion_study(family, problem, (4, 8), SolveOptions())
    assert [row["R"] for row in study["rows"]] == [4, 8]
    assert all(row["converged"] for row in study["rows"])


def test_exhaustion_names_the_radius_a_solve_failed_at(monkeypatch):
    family = GraphFamily("path", {"n": 40})
    problem = ProblemFamily(p=4.0, alpha=3.0, delta=0.4, h="1 + dist^2", g=1.0)

    def failing(g, spec, opts):
        # the radius-8 ball of the path has 9 vertices
        if g.n == 9:
            raise DegenerateConstraintError("multiplier is undefined")
        return solve(g, spec, opts)

    monkeypatch.setattr(verify, "solve", failing)
    with pytest.raises(RuntimeError, match="^solve failed at radius 8: multiplier is undefined$") as err:
        exhaustion_study(family, problem, (4, 8, 12))
    assert isinstance(err.value.__cause__, DegenerateConstraintError)


def test_exhaustion_runs_one_search(monkeypatch):
    # the universe's connectivity search is the one from its anchor; the
    # tails, every cut and every ball's start reuse it
    counts = count_calls(monkeypatch, _bfs)
    family = GraphFamily("lattice_zd_ball", {"d": 2})
    problem = ProblemFamily(p=4.0, alpha=3.0, delta=0.4, h="1 + dist^4", g=1.0)
    study = exhaustion_study(family, problem, (4, 8), universe_radius=16)
    assert [row["R"] for row in study["rows"]] == [4, 8]
    assert counts["_bfs"] == 1


def test_exhaustion_rejects_bad_radii():
    family, problem = lattice_family()
    with pytest.raises(ValueError):
        exhaustion_study(family, problem, [])
    with pytest.raises(ValueError):
        exhaustion_study(family, problem, (4, 4))
    with pytest.raises(ValueError):
        exhaustion_study(family, problem, (8, 2))
    with pytest.raises(ValueError):
        exhaustion_study(family, problem, (2, 4), universe_radius=3)
    with pytest.raises(ValueError, match="radii must be nonnegative"):
        exhaustion_study(family, problem, (-1, 4))


@pytest.mark.parametrize(
    "radii, universe_radius",
    [((4.7, 8.2), None), ((4, 8.2), None), ((True, 4), None), (("4", 8), None),
     ((4, 8), 16.5), ((4, 8), True), ((4, 8), "16")],
)
def test_exhaustion_radii_are_integers(monkeypatch, radii, universe_radius):
    # int() used to turn radii (4.7, 8.2) into (4, 8) and True into radius 1;
    # they are checked like every config integer, before the universe is built
    family, problem = lattice_family()
    counts = count_calls(monkeypatch, lattice_ball, lattice_quotient)
    with pytest.raises(ValueError, match="must be an integer"):
        exhaustion_study(family, problem, radii, universe_radius=universe_radius)
    assert counts["lattice_ball"] == counts["lattice_quotient"] == 0
    # integral floats stand for their integers, as in a config
    study = exhaustion_study(family, problem, (4.0, 8.0), universe_radius=16.0)
    assert [row["R"] for row in study["rows"]] == [4, 8] and study["universe_radius"] == 16
    assert all(type(row["R"]) is int for row in study["rows"])


class FullFamily:
    """A duck-typed family, not a GraphFamily: studies solve on its full balls."""

    def __init__(self, name, params):
        self.materialize = GraphFamily(name, params).materialize


def ball_sizes(monkeypatch):
    """The vertex count of every graph the study solves on, in order."""
    import yamabe.verify as verify

    seen, solve_ball = [], verify.solve

    def recording(g, spec, opts=None):
        seen.append(g.n)
        return solve_ball(g, spec, opts)

    monkeypatch.setattr(verify, "solve", recording)
    return seen


def test_radial_lattice_study_solves_on_cells(monkeypatch):
    # scalar mu and formula fields on a lattice family: the study never builds
    # the lattice ball, and each ball it solves has one vertex per orbit of the
    # signed permutations (sorted |coordinates|), counted here without graph.py
    counts = count_calls(monkeypatch, lattice_ball, lattice_quotient)
    sizes = ball_sizes(monkeypatch)
    family = GraphFamily("lattice_zd_ball", {"d": 2, "mu": 0.5, "weight": 2.0})
    problem = ProblemFamily(p=4.0, alpha=3.0, delta=0.4, h="1 + dist^2", g=1.0)
    study = exhaustion_study(family, problem, (8, 16), universe_radius=32)
    assert counts["lattice_ball"] == 0 and counts["lattice_quotient"] == 1
    orbits = [
        len({(min(abs(x), abs(y)), max(abs(x), abs(y)))
             for x in range(-r, r + 1) for y in range(-r, r + 1) if abs(x) + abs(y) <= r})
        for r in (8, 16)
    ]
    assert sizes == orbits == [25, 81]
    assert all(row["converged"] for row in study["rows"])


def test_tree_study_solves_on_levels(monkeypatch):
    counts = count_calls(monkeypatch, tree_ball, tree_quotient)
    sizes = ball_sizes(monkeypatch)
    family = GraphFamily("tree_ball", {"branching": 3})
    problem = ProblemFamily(p=4.0, alpha=3.0, delta=0.4, h="1 + dist^4", g=1.0)
    # the depth-40 universe would have 6e18 vertices; a few steps suffice to count
    exhaustion_study(family, problem, (3, 5), SolveOptions(max_iters=3), universe_radius=40)
    assert counts["tree_ball"] == 0 and counts["tree_quotient"] == 1
    assert sizes == [4, 6]


def rows_of(study):
    return [[row[key] for key in ("R", "gamma", "lambda", "tail_bound", "converged")]
            for row in study["rows"]]


_PATH_DATA = graph_to_dict(path_graph(12, weight=0.7)[0])


@pytest.mark.parametrize(
    "name, params, h, radii",
    [
        ("path", {"n": 30}, "1 + dist^2", (4, 8)),
        ("cycle", {"n": 30}, "1 + dist^2", (4, 8)),
        ("explicit", {"data": _PATH_DATA, "x0": 0}, "1 + dist^2", (4, 8)),
        ("lattice_zd_ball", {"d": 1, "radius": 10, "mu": [1.0 + 0.1 * k for k in range(21)]},
         "1 + dist^2", (4, 8)),
        ("tree_ball", {"branching": 2, "depth": 4}, [1.0 + k for k in range(31)], (3, 4)),
    ],
    ids=["path", "cycle", "explicit", "mu_list", "h_list"],
)
def test_studies_without_a_quotient_solve_the_full_balls(monkeypatch, name, params, h, radii):
    # path, cycle, explicit graphs, a per-vertex mu and a sequence-valued h keep
    # the full graph: the same rows, bit for bit, as a family with no quotient
    problem = ProblemFamily(p=4.0, alpha=3.0, delta=0.4, h=h, g=1.0)
    full = exhaustion_study(FullFamily(name, params), problem, radii)
    counts = count_calls(monkeypatch, lattice_quotient, tree_quotient)
    sizes = ball_sizes(monkeypatch)
    study = exhaustion_study(GraphFamily(name, params), problem, radii)
    assert counts["lattice_quotient"] == counts["tree_quotient"] == 0
    assert rows_of(study) == rows_of(full) and study["gamma_est"] == full["gamma_est"]
    g, x0 = GraphFamily(name, params).materialize(2 * max(radii))
    assert sizes == [int((graph_distance(g, x0) <= r).sum()) for r in radii]


@pytest.mark.parametrize("h", ["1 + dist^2 + 0.001*dist.size", "1 + dist^2/maximum.reduce(dist)"])
def test_studies_on_formulas_of_the_whole_dist_array_solve_the_full_balls(h):
    # an aggregate of dist (its size, its largest entry) would differ between
    # the ball and its quotient, whose dist has one entry per cell. Such
    # formulas used to send a study to the full balls; the formula grammar has
    # no attributes, so now they are rejected and every accepted one is radial
    problem = ProblemFamily(p=4.0, alpha=3.0, delta=0.4, h=h, g=1.0)
    assert problem.radial
    for family in (FullFamily("lattice_zd_ball", {"d": 2}), GraphFamily("lattice_zd_ball", {"d": 2})):
        with pytest.raises(ValueError, match="is not in the grammar"):
            exhaustion_study(family, problem, (4, 8))


def test_eigen_tail_bound_uses_vertex_measure():
    # p = alpha bounds sup |u| by min(h mu) over vertices; on the quotient that
    # minimum must use a vertex's measure, not its cell's. Here h is least on
    # the ring at distance 4, whose cells hold 4 or 8 vertices, so a
    # cell-measure bound would come out too small
    problem = ProblemFamily(p=4.0, alpha=4.0, delta=0.4, h="1+(dist-4)^2", g=1.0)
    family = GraphFamily("lattice_zd_ball", {"d": 2})
    opts = SolveOptions(max_iters=0)
    cells = exhaustion_study(family, problem, (8,), opts, universe_radius=32)
    full = exhaustion_study(FullFamily("lattice_zd_ball", {"d": 2}), problem, (8,), opts,
                            universe_radius=32)
    got, want = cells["rows"][0]["tail_bound"], full["rows"][0]["tail_bound"]
    assert abs(got - want) <= 1e-12 * want
