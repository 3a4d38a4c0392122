"""Coefficient formulas and radius-parametrized graph families."""

import numpy as np
import pytest

from yamabe import (
    GraphFamily,
    ProblemFamily,
    evaluate_field,
    graph_distance,
    graph_to_dict,
    path_graph,
)


def test_evaluate_constant_and_sequence():
    dist = np.array([0.0, 1.0, 2.0])
    np.testing.assert_array_equal(evaluate_field(3, dist), [3.0, 3.0, 3.0])
    np.testing.assert_array_equal(evaluate_field(2.5, dist), [2.5, 2.5, 2.5])
    np.testing.assert_array_equal(evaluate_field([1.0, 2.0, 3.0], dist), [1, 2, 3])
    with pytest.raises(ValueError):
        evaluate_field([1.0, 2.0], dist)
    with pytest.raises(ValueError):
        evaluate_field(True, dist)
    with pytest.raises(ValueError):
        evaluate_field({"a": 1}, dist)


def test_evaluate_formula():
    dist = np.array([0.0, 1.0, 2.0, 3.0])
    np.testing.assert_allclose(evaluate_field("1 + dist^4", dist), [1, 2, 17, 82])
    np.testing.assert_allclose(evaluate_field("2", dist), [2, 2, 2, 2])
    np.testing.assert_allclose(
        evaluate_field("exp(-dist)", dist), np.exp(-dist)
    )
    np.testing.assert_allclose(
        evaluate_field("maximum(dist, 1)", dist), [1, 1, 2, 3]
    )


def test_evaluate_formula_rejects_unsafe_input():
    dist = np.zeros(2)
    with pytest.raises(ValueError):
        evaluate_field("__import__('os')", dist)
    with pytest.raises(ValueError):
        evaluate_field("dist.__class__", dist)
    with pytest.raises(ValueError):
        evaluate_field("dist; dist", dist)
    with pytest.raises(ValueError):
        evaluate_field("open('x')", dist)
    with pytest.raises(ValueError):
        evaluate_field("nosuchname + 1", dist)


def test_family_names_validated():
    with pytest.raises(ValueError):
        GraphFamily("hypercube")
    GraphFamily("path", {"n": 3})


def test_path_family_radius_fills_size():
    fam = GraphFamily("path")
    g, anchor = fam.materialize(6)
    assert g.n == 7
    assert anchor == 0
    fixed = GraphFamily("path", {"n": 4})
    g2, _ = fixed.materialize(100)
    assert g2.n == 4
    with pytest.raises(ValueError):
        fam.materialize()


def test_lattice_and_tree_families():
    g, anchor = GraphFamily("lattice_zd_ball", {"d": 2}).materialize(1)
    assert g.n == 5
    assert int(graph_distance(g, anchor).max()) == 1
    g, _ = GraphFamily("tree_ball", {"branching": 2}).materialize(2)
    assert g.n == 7
    with pytest.raises(ValueError):
        GraphFamily("lattice_zd_ball", {"d": 1}).materialize()
    with pytest.raises(ValueError):
        GraphFamily("tree_ball").materialize()


def test_cycle_family_needs_n():
    g, _ = GraphFamily("cycle", {"n": 6}).materialize()
    assert g.n == 6
    assert g.n_edges == 6
    with pytest.raises(ValueError):
        GraphFamily("cycle").materialize(4)


@pytest.mark.parametrize(
    "name, params, bad",
    [
        ("lattice_zd_ball", {"d": [2], "radius": 3}, "d"),
        ("lattice_zd_ball", {"d": 2, "radius": {"r": 3}}, "radius"),
        ("tree_ball", {"branching": "two", "depth": 2}, "branching"),
        ("path", {"n": "many"}, "n"),
        ("explicit", {"data": graph_to_dict(path_graph(3)[0]), "x0": [0]}, "x0"),
        ("path", {"n": True}, "n"),
        ("path", {"n": "5"}, "n"),
        ("path", {"n": 5.7}, "n"),
        ("lattice_zd_ball", {"d": 2, "radius": True}, "radius"),
        ("tree_ball", {"branching": "5", "depth": 2}, "branching"),
        ("cycle", {"n": float("inf")}, "n"),
    ],
)
def test_non_integer_param_names_the_param(name, params, bad):
    with pytest.raises(ValueError, match=f"graph param {bad} must be an integer"):
        GraphFamily(name, params).materialize(2)


def test_integral_float_size_builds_the_same_graph():
    a, anchor_a = GraphFamily("lattice_zd_ball", {"d": 2, "radius": 5}).materialize()
    b, anchor_b = GraphFamily("lattice_zd_ball", {"d": 2.0, "radius": 5.0}).materialize()
    assert anchor_a == anchor_b
    for name in ("indptr", "indices", "weights", "mu"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes()


@pytest.mark.parametrize(
    "name, params, bad",
    [
        ("path", {"n": 4, "wieght": 2.0}, "wieght"),
        ("path", {"n": 4, "x0": 1}, "x0"),
        ("cycle", {"n": 4, "radius": 2}, "radius"),
        ("lattice_zd_ball", {"d": 2, "depth": 2}, "depth"),
        ("tree_ball", {"depth": 2, "n": 7}, "n"),
        ("explicit", {"data": graph_to_dict(path_graph(3)[0]), "weight": 2.0}, "weight"),
    ],
)
def test_unlisted_param_is_rejected(name, params, bad):
    with pytest.raises(ValueError, match=rf"^unknown {name} params: \['{bad}'\]$"):
        GraphFamily(name, params).materialize(2)


def test_explicit_family_roundtrip():
    base, _ = path_graph(4)
    fam = GraphFamily("explicit", {"data": graph_to_dict(base), "x0": 2})
    g, anchor = fam.materialize(999)
    assert g.n == 4
    assert anchor == 2
    np.testing.assert_array_equal(g.mu, base.mu)


def test_problem_family_evaluates_on_graph():
    fam = ProblemFamily(p=4.0, alpha=3.0, delta=0.4, h="1 + dist^2", g=2.0)
    g, anchor = GraphFamily("path").materialize(3)
    spec = fam.on(g, anchor)
    np.testing.assert_allclose(spec.h, [1.0, 2.0, 5.0, 10.0])
    np.testing.assert_allclose(spec.g, [2.0] * 4)
    assert spec.p == 4.0 and spec.theta == 1.0


def test_weight_and_mu_passthrough():
    g, _ = GraphFamily("path", {"n": 3, "weight": 2.0, "mu": 0.5}).materialize()
    assert float(g.weights[0]) == 2.0
    np.testing.assert_array_equal(g.mu, [0.5, 0.5, 0.5])
    # numpy would parse numeric strings as numbers
    for key in ("weight", "mu"):
        with pytest.raises(ValueError, match=f"^{key} must be numeric"):
            GraphFamily("path", {"n": 3, key: "2"}).materialize()
        # and booleans as 1.0
        with pytest.raises(ValueError, match=f"^{key} must be numeric: got a boolean$"):
            GraphFamily("path", {"n": 3, key: True}).materialize()


@pytest.mark.parametrize(
    "name, params",
    [
        ("lattice_zd_ball", {"d": [2], "radius": 3}),
        ("lattice_zd_ball", {"d": 2, "depth": 2}),
        ("lattice_zd_ball", {"d": 0}),
        ("lattice_zd_ball", {"d": 2, "radius": -1}),
        ("lattice_zd_ball", {"d": 2, "weight": "2"}),
        ("lattice_zd_ball", {"d": 2, "weight": -1.0}),
        ("lattice_zd_ball", {"d": 2, "weight": [1.0, 2.0]}),
        ("lattice_zd_ball", {"d": 2, "mu": True}),
        ("lattice_zd_ball", {"d": 2, "mu": 0.0}),
        ("lattice_zd_ball", {"d": 2, "mu": "1"}),
        ("tree_ball", {"branching": "two"}),
        ("tree_ball", {"branching": 1}),
        ("tree_ball", {"branching": 2, "depth": 5.5}),
        ("tree_ball", {"branching": 2, "weight": True}),
        ("tree_ball", {"branching": 2, "mu": float("nan")}),
    ],
)
def test_quotient_rejects_what_materialize_rejects(name, params):
    # one method parses the params either way, and the builders share the checks
    family = GraphFamily(name, params)
    with pytest.raises(ValueError) as built:
        family.materialize(3)
    with pytest.raises(ValueError) as quotient:
        family.materialize(3, cells=True)
    assert str(quotient.value) == str(built.value)


def test_quotient_only_where_the_family_has_one():
    assert GraphFamily("path", {"n": 5}).materialize(cells=True) is None
    assert GraphFamily("cycle", {"n": 5}).materialize(cells=True) is None
    explicit = GraphFamily("explicit", {"data": graph_to_dict(path_graph(3)[0])})
    assert explicit.materialize(cells=True) is None
    assert GraphFamily("tree_ball", {"depth": 2, "mu": [1.0] * 7}).materialize(cells=True) is None
    q, anchor, cell_size = GraphFamily("tree_ball", {"branching": 3}).materialize(2, cells=True)
    assert anchor == 0
    np.testing.assert_array_equal(cell_size, [1.0, 3.0, 9.0])
    np.testing.assert_array_equal(q.mu, [1.0, 3.0, 9.0])
    q, anchor, cell_size = GraphFamily("lattice_zd_ball", {"d": 2, "mu": 0.5}).materialize(
        1, cells=True
    )
    np.testing.assert_array_equal(cell_size, [1.0, 4.0])
    np.testing.assert_array_equal(q.mu, [0.5, 2.0])


def test_radial_problem_data():
    assert ProblemFamily(p=4.0, alpha=3.0, delta=0.4, h="1 + dist^2", g=2.0).radial
    assert not ProblemFamily(p=4.0, alpha=3.0, delta=0.4, h=[1.0, 2.0], g=1.0).radial
    assert not ProblemFamily(p=4.0, alpha=3.0, delta=0.4, g=np.ones(3)).radial
    assert ProblemFamily(p=4.0, alpha=3.0, delta=0.4, h="exp(-dist) + minimum(dist, 3)").radial
    # formulas that read the whole dist array, or give no field at all
    for h in ("1 + dist/dist.mean()", "1 + 0.001*dist.size", "maximum.reduce(dist)",
              "dist, dist", "(1 + dist"):
        assert not ProblemFamily(p=4.0, alpha=3.0, delta=0.4, h=h).radial, h
