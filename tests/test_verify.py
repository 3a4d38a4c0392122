"""Hypothesis checks, residual and positivity certificates, inequality suite."""

import numpy as np
import pytest

from conftest import count_calls
from yamabe import (
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
    hypotheses_check,
    inequality_suite,
    lattice_ball,
    path_graph,
    positivity_certificate,
    residual_report,
    solve,
)
from yamabe.graph import _bfs


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
    with pytest.raises(InfeasibleConstraintError, match="uniform competitor"):
        exhaustion_study(family, problem, (2, 4))
    g, _ = path_graph(5)
    with pytest.raises(InfeasibleConstraintError, match="uniform competitor"):
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


def test_exhaustion_rejects_u0():
    # one u0 cannot fit balls of different sizes; it used to fail at the
    # first ball with "vertex function has shape (33,), expected (9,)"
    class NoUniverse(GraphFamily):
        def materialize(self, radius=None):
            raise AssertionError("universe materialized before the u0 check")

    _, problem = lattice_family()
    family = NoUniverse("lattice_zd_ball", {"d": 1})
    with pytest.raises(ValueError, match="u0 must be None"):
        exhaustion_study(family, problem, (4, 8), SolveOptions(u0=np.ones(33)))


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


def test_exhaustion_runs_two_searches(monkeypatch):
    # the universe's connectivity search (from vertex 0) and the one from
    # its anchor; the tails, every cut and every ball's start reuse the latter
    counts = count_calls(monkeypatch, _bfs)
    family = GraphFamily("lattice_zd_ball", {"d": 2})
    problem = ProblemFamily(p=4.0, alpha=3.0, delta=0.4, h="1 + dist^4", g=1.0)
    study = exhaustion_study(family, problem, (4, 8), universe_radius=16)
    assert [row["R"] for row in study["rows"]] == [4, 8]
    assert counts["_bfs"] == 2


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
