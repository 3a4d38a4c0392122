"""Coefficient formulas and radius-parametrized graph families."""

import ast
import time
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    # numpy would read a boolean among the values as 1.0 and a numeric string as a number
    for values in ([True, 1.0, 2.0], (1.0, 2.0, False), np.array([True, True, False])):
        with pytest.raises(ValueError, match=r"^h must be numeric: got a boolean$"):
            evaluate_field(values, dist, "h")
    for values in ([1.0, "2", 3.0], [True, 1, "2"]):
        with pytest.raises(ValueError, match=r"^g must be numeric: got a string$"):
            evaluate_field(values, dist, "g")


@pytest.mark.parametrize("value", [np.int64(3), np.float32(2.0), np.float64(2.5), np.bool_(True), True])
def test_evaluate_numpy_scalar_constants(value):
    # a numpy number is a constant field, as it is to ProblemSpec; a boolean is no number
    dist = np.array([0.0, 1.0, 2.0])
    if isinstance(value, (bool, np.bool_)):
        with pytest.raises(ValueError, match=r"^h cannot be a boolean$"):
            evaluate_field(value, dist, "h")
    else:
        field = evaluate_field(value, dist, "h")
        assert field.dtype == np.float64
        np.testing.assert_array_equal(field, np.full(3, float(value)))


def test_formula_parse_warnings_stay_inside():
    # "1if" is an invalid decimal literal and "\d" an invalid escape, which the
    # parser only warns of (the escape with a DeprecationWarning before Python
    # 3.12): the formula fails with the grammar's ValueError and no warning is shown
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for formula in ("1if dist else 2", "1or dist", "0x1for", "'\\d'", "b'\\q'"):
            with pytest.raises(ValueError, match="is not in the grammar: numbers"):
                evaluate_field(formula, np.arange(3.0))
    assert not caught, [str(w.message) for w in caught]


def test_formula_parses_in_threads_leave_the_filters(monkeypatch):
    # each parse installs and removes its filter under one lock, so
    # concurrent parses cannot leave "error::SyntaxWarning" installed; a
    # parse that sleeps lets the threads interleave inside it
    parse = ast.parse

    def slow_parse(*args, **kwargs):
        time.sleep(0.001)
        return parse(*args, **kwargs)

    monkeypatch.setattr(ast, "parse", slow_parse)
    with warnings.catch_warnings():
        # unlike the suite's own filters, these lack "error::SyntaxWarning"
        warnings.simplefilter("default", SyntaxWarning)
        filters = list(warnings.filters)
        with ThreadPoolExecutor(max_workers=4) as pool:
            list(pool.map(lambda i: evaluate_field(f"{i} + dist", np.arange(3.0)), range(200)))
        assert warnings.filters == filters


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
    # everything outside the grammar fails with one message naming it: "1j"
    # used to raise TypeError, "True + dist" to evaluate as 1 + dist, and
    # "dist.mean()" to fail with a bare "'__import__'"
    dist = np.arange(4.0)
    for formula in ("__import__('os')", "dist.__class__", "dist; dist", "open('x')", "nosuchname + 1",
                    "1j", "True + dist", "dist.size", "dist.mean()", "maximum.reduce(dist)",
                    "dist @ dist", "dist % 2", "dist | 1", "~dist", "dist << 1", "dist[0]",
                    "maximum(dist, 1, dist)", "exp(dist, dist)", "exp(x=dist)", "exp", "dist(1)",
                    "'1'", "None", "1 if dist else 2", "dist < 1", "lambda: 1", "(dist := 1)",
                    "(" * 500 + "dist" + ")" * 500, "-" * 100000 + "1", "1" * 400, "1\x00"):
        with pytest.raises(ValueError, match="is not in the grammar: numbers"):
            evaluate_field(formula, dist)


def test_evaluate_formula_failures_are_value_errors():
    # a formula in the grammar that fails to evaluate names itself
    dist = np.arange(4.0)
    for formula in ("1/0", "0^-1", "(-1)^0.5", "(-1)^0.5 * dist", "9^9^9"):
        with pytest.raises(ValueError, match="failed to evaluate"):
            evaluate_field(formula, dist)


def test_evaluate_formula_values():
    # numbers evaluate as floats; integer-valued formulas keep their values
    dist = np.arange(6.0)
    np.testing.assert_array_equal(evaluate_field("2^70 + dist", dist), 2.0**70 + dist)
    np.testing.assert_array_equal(evaluate_field("7 // 2 + -dist", dist), 3.0 - dist)
    np.testing.assert_array_equal(evaluate_field("minimum(2, 3) * pi / e", dist), np.full(6, 2 * np.pi / np.e))
    np.testing.assert_array_equal(evaluate_field("0x10 + 1_0 + 1e1", dist), np.full(6, 36.0))
    field = evaluate_field("dist", dist)
    assert field is not dist and field.flags.writeable
    np.testing.assert_array_equal(field, dist)


# the grammar's pieces, for drawing formulas in it
_LEAVES = st.one_of(
    st.sampled_from(["dist", "pi", "e"]),
    st.integers(0, 12).map(str),
    st.floats(0.0, 10.0).map(repr),
)


def _grown(inner):
    pair = st.tuples(inner, inner)
    return st.one_of(
        st.tuples(inner, st.sampled_from(["+", "-", "*", "/", "//", "**", "^"]), inner).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.tuples(st.sampled_from(["-", "+", "exp", "log", "sqrt", "abs"]), inner).map(
            lambda t: f"{t[0]}({t[1]})"),
        st.tuples(st.sampled_from(["minimum", "maximum"]), pair).map(
            lambda t: f"{t[0]}({t[1][0]}, {t[1][1]})"),
    )


_FORMULAS = st.recursive(_LEAVES, _grown, max_leaves=10)


@settings(max_examples=300, deadline=None)
@given(_FORMULAS, st.data())
def test_formulas_in_the_grammar_are_elementwise(formula, data):
    # each vertex's value is a function of its own distance: evaluating on a
    # subset of the vertices (in any order, with repeats) gives the same bits
    dist = np.array(data.draw(st.lists(st.integers(0, 20), min_size=1, max_size=30)), float)
    idx = data.draw(st.lists(st.integers(0, len(dist) - 1), max_size=30))
    with np.errstate(all="ignore"):
        try:
            whole = evaluate_field(formula, dist)
        except ValueError:
            # only arithmetic on numbers alone fails (1/0, an overflow), on any vertices
            with pytest.raises(ValueError, match="failed to evaluate"):
                evaluate_field(formula, dist[idx])
            return
        part = evaluate_field(formula, dist[idx])
    assert part.dtype == np.float64 and whole[idx].tobytes() == part.tobytes()


@settings(max_examples=500, deadline=None)
@example("1j")
@example("True + dist")
@example("dist.mean()")
@given(st.text(alphabet="0123456789.+-*/^(), distpexmaxlogsqrtabminuTrj@%&|~<>=[]:;_'\"\x00", max_size=24))
def test_any_text_evaluates_or_raises_value_error(text):
    try:
        field = evaluate_field(text, np.arange(5.0))
    except ValueError:
        return
    assert field.dtype == np.float64 and field.shape == (5,)


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


@pytest.mark.parametrize("cells", [False, True])
def test_explicit_family_needs_data(cells):
    # raised KeyError: 'data' from materialize(), and materialize(cells=True) returned None
    with pytest.raises(ValueError, match="^explicit family needs data$"):
        GraphFamily("explicit", {"x0": 0}).materialize(cells=cells)


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


@pytest.mark.parametrize(
    "name, params, radii",
    [
        ("lattice_zd_ball", {"d": 1}, (0, 1, 5, 64)),
        ("lattice_zd_ball", {"d": 2}, (0, 1, 7, 128)),
        ("lattice_zd_ball", {"d": 2, "weight": 2.0, "mu": 0.5}, (3, 40)),
        ("lattice_zd_ball", {"d": 3}, (0, 2, 9, 24)),
        ("lattice_zd_ball", {"d": 3, "mu": 1e-3}, (2, 9)),
        ("tree_ball", {"branching": 2}, (0, 1, 8, 64)),
        ("tree_ball", {"branching": 3, "mu": 3.0}, (0, 5, 40)),
        ("tree_ball", {"branching": 7}, (30,)),
    ],
)
def test_cells_are_the_quotient_graphs(name, params, radii):
    # a study takes its universe beyond the largest ball from these arrays
    # alone, so they stand in for the distances _assemble certifies on a
    # built quotient: each cell's hop distance, measure and size, bit for bit.
    # Tree depth 40 with branching 3 and 30 with branching 7 have sizes past int64
    family = GraphFamily(name, params)
    for radius in radii:
        dist, mu, cell_size = family._cells(radius)
        q, anchor, q_size = family.materialize(radius, cells=True)
        for got, want in ((dist, graph_distance(q, anchor)), (mu, q.mu), (cell_size, q_size)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_cells_only_where_the_family_has_a_quotient():
    # and where a param fixes the extent: every radius gives the same member
    for name, params in (("path", {"n": 5}), ("cycle", {"n": 5}), ("tree_ball", {"mu": [1.0] * 7}),
                         ("explicit", {"data": graph_to_dict(path_graph(3)[0])}),
                         ("lattice_zd_ball", {"d": 2, "radius": 6}), ("tree_ball", {"depth": 3})):
        assert GraphFamily(name, params)._cells(2) is None
    # bad params raise what materialize raises
    for name, params in (("lattice_zd_ball", {"d": 0}), ("lattice_zd_ball", {"d": 2, "depth": 2}),
                         ("lattice_zd_ball", {"d": 2, "weight": -1.0}), ("lattice_zd_ball", {"mu": "1"}),
                         ("tree_ball", {"branching": 1}), ("tree_ball", {"weight": True})):
        family = GraphFamily(name, params)
        with pytest.raises(ValueError) as built:
            family.materialize(3, cells=True)
        with pytest.raises(ValueError) as cells:
            family._cells(3)
        assert str(cells.value) == str(built.value)
    # the cells' measure overflows in both, with one message
    family = GraphFamily("tree_ball", {"branching": 10, "mu": 1e300})
    for build in (family._cells, lambda r: family.materialize(r, cells=True)):
        with pytest.raises(ValueError, match="^the cells' measure overflows float64$"):
            build(9)


def test_radial_problem_data():
    assert ProblemFamily(p=4.0, alpha=3.0, delta=0.4, h="1 + dist^2", g=2.0).radial
    assert not ProblemFamily(p=4.0, alpha=3.0, delta=0.4, h=[1.0, 2.0], g=1.0).radial
    assert not ProblemFamily(p=4.0, alpha=3.0, delta=0.4, g=np.ones(3)).radial
    assert ProblemFamily(p=4.0, alpha=3.0, delta=0.4, h="exp(-dist) + minimum(dist, 3)").radial
    # formulas that would read the whole dist array, or give no field at all,
    # are outside the grammar: no accepted formula is anything but radial
    for h in ("1 + dist/dist.mean()", "1 + 0.001*dist.size", "maximum.reduce(dist)",
              "dist, dist", "(1 + dist"):
        with pytest.raises(ValueError, match="is not in the grammar"):
            ProblemFamily(p=4.0, alpha=3.0, delta=0.4, h=h).on(*path_graph(4))
