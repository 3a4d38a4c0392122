"""Graph families and formula-defined problem data.

A GraphFamily names a ``graph._FAMILIES`` entry and takes only the params
that entry lists. The coefficient fields h and g of a ProblemFamily are
numbers, per-vertex sequences, or formulas in the graph distance from the
anchor ("1+dist^4") in the grammar of :func:`evaluate_field`, evaluated
after each ball is materialized.
"""

from __future__ import annotations

import ast
import numbers
import threading
import warnings
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .functionals import ProblemSpec
from .graph import (_FAMILIES, WeightedGraph, _as_float, _family_params, _integer, generate,
                    graph_distance, graph_from_dict)

__all__ = ["GraphFamily", "ProblemFamily", "evaluate_field"]

# the formula grammar: its functions (every one a ufunc) with their argument
# counts, its other names, and its operators
_FUNCTIONS = {"exp": 1, "log": 1, "sqrt": 1, "abs": 1, "minimum": 2, "maximum": 2}
_NAMESPACE = {"pi": np.pi, "e": np.e, **{name: getattr(np, name) for name in _FUNCTIONS}}
_OPERATORS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv, ast.Pow, ast.UAdd, ast.USub)
_GRAMMAR = (
    "numbers (as floats), the names dist, pi and e, calls of exp, log, sqrt and abs (one argument) "
    "and minimum and maximum (two), binary + - * / // ** (or ^), and unary + -"
)
_SEQUENCES = (list, tuple, np.ndarray)
_PARSE_LOCK = threading.Lock()


def _in_grammar(node) -> bool:
    """Whether the syntax tree under ``node`` lies in the formula grammar.
    Its numbers become floats on the way, so a constant such as 9^9^9
    overflows at once instead of growing a huge integer."""
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        node.value = float(node.value)
        return True
    if isinstance(node, ast.Name):
        return node.id in ("dist", "pi", "e")
    if isinstance(node, ast.BinOp):
        return isinstance(node.op, _OPERATORS) and _in_grammar(node.left) and _in_grammar(node.right)
    if isinstance(node, ast.UnaryOp):
        return isinstance(node.op, _OPERATORS) and _in_grammar(node.operand)
    return (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and not node.keywords
        and _FUNCTIONS.get(node.func.id) == len(node.args) and all(map(_in_grammar, node.args))
    )


def _compile(expr: str):
    """The code of a formula in the grammar; anything else raises ValueError naming it.
    A SyntaxWarning or DeprecationWarning of the parser ("1if dist else 2", or
    "'\\d'" before Python 3.12) is raised as a SyntaxError, so nothing is
    printed before that ValueError.  The filters that do so are process-wide
    while the parse runs: ``_PARSE_LOCK`` keeps two parses from interleaving
    their filter changes, but such a warning another thread issues meanwhile
    is raised too, and a ``catch_warnings`` another thread leaves meanwhile
    restores the filters it saved, dropping these."""
    try:
        with _PARSE_LOCK, warnings.catch_warnings():
            warnings.simplefilter("error", SyntaxWarning)
            warnings.simplefilter("error", DeprecationWarning)
            tree = ast.parse(expr.replace("^", "**"), mode="eval")
        if _in_grammar(tree.body):
            return compile(tree, "<field formula>", "eval")
    except (SyntaxError, ValueError, OverflowError, RecursionError, MemoryError):
        pass
    raise ValueError(f"field formula {expr!r} is not in the grammar: {_GRAMMAR}")


def evaluate_field(expr, dist: np.ndarray, name: str = "field") -> np.ndarray:
    """Evaluate a coefficient field given per-vertex distances.

    Accepts a real number (constant field; numpy scalars too), a sequence
    of numbers (explicit values), or a formula string in the variable dist,
    where ^ means power, built as ``_GRAMMAR`` lists; anything else
    (booleans, numpy's too, strings among the values, attributes,
    subscripts, keywords, @, %, bit operators) raises ValueError naming it,
    or the field by ``name``. So a formula gives each vertex a value from
    its own distance alone. Values a formula takes to
    inf or nan on some vertices (``1/dist`` at the anchor) are returned
    without numpy's warnings: the hypotheses check names the field.
    """
    dist = np.asarray(dist, dtype=np.float64)
    n = dist.shape[0]
    if isinstance(expr, (bool, np.bool_)):
        raise ValueError(f"{name} cannot be a boolean")
    if isinstance(expr, numbers.Real):
        return np.full(n, float(expr))
    if isinstance(expr, _SEQUENCES):
        arr = _as_float(expr, name)
        if arr.shape != (n,):
            raise ValueError(f"explicit {name} has length {arr.size}, expected {n}")
        return arr
    if not isinstance(expr, str):
        raise ValueError(f"cannot interpret {name} {expr!r}")
    code = _compile(expr)
    try:
        with np.errstate(all="ignore"):
            value = eval(code, {"__builtins__": {}, **_NAMESPACE, "dist": dist})
        if np.iscomplexobj(value):  # a negative number to a fractional power
            raise TypeError("the value is complex")
        # every formula in the grammar gives one number or one per vertex
        return np.broadcast_to(value, (n,)).astype(np.float64)
    except Exception as exc:
        raise ValueError(f"field formula {expr!r} failed to evaluate: {exc}") from exc


@dataclass(frozen=True)
class GraphFamily:
    """A named graph family materializable at any ball radius.

    Families with a fixed size parameter (or an explicit edge list) ignore
    the radius and saturate; open-ended families use the radius as their
    extent.
    """

    name: str
    params: Mapping = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.name != "explicit" and self.name not in _FAMILIES:
            raise ValueError(f"unknown graph family: {self.name!r}")

    def materialize(self, radius: int | None = None, cells: bool = False):
        """Build the family member covering the given radius; returns (graph,
        anchor vertex). Unlisted params and non-integer sizes raise ValueError.

        With ``cells``, build the member's quotient by the symmetries that fix
        its anchor instead, as (graph, anchor, cell_size), or return None where
        there is none: explicit graphs, path and cycle, and a per-vertex mu.
        Every cell lies at one hop distance from the anchor, so radial data
        (see :attr:`ProblemFamily.radial`) poses the same problem on the
        quotient as on the member. Params are checked the same way, with the
        same messages.
        """
        params = _family_params(self.name, self.params, radius, by_radius=True)
        if self.name == "explicit":
            if cells:
                return None
            graph = graph_from_dict(params["data"])
            x0 = _integer(params.get("x0", 0), "graph param x0")
            if not 0 <= x0 < graph.n:
                raise ValueError(f"graph param x0 must be a vertex 0..{graph.n - 1} of n = {graph.n}, got {x0}")
            return graph, x0
        if cells and not self._has_quotient(params):
            return None
        return generate(self.name, cells=cells, **params)

    def _has_quotient(self, params) -> bool:
        """Whether ``materialize(cells=True)`` builds a quotient at these params."""
        return self.name != "explicit" and _FAMILIES[self.name][4] is not None and not np.ndim(
            params.get("mu", 1.0))

    def _cells(self, radius: int):
        """The cells of ``materialize(radius, cells=True)`` without its graph, as
        ``(dist, mu, cell_size)``: each cell's hop distance from the anchor, its
        measure and its vertex count, bit for bit its graph's. None where that
        returns None, and where the params fix the extent, so that every
        radius gives the same member. Params are checked the same way, with
        the same messages, but no edge is made."""
        params = _family_params(self.name, self.params, radius, by_radius=True)
        if not self._has_quotient(params) or _FAMILIES[self.name][1] in self.params:
            return None
        return _FAMILIES[self.name][5](**params)


@dataclass(frozen=True)
class ProblemFamily:
    """Problem data whose coefficient fields are functions of distance."""

    p: float
    alpha: float
    delta: float
    theta: float = 1.0
    h: object = 1.0
    g: object = 1.0

    @property
    def radial(self) -> bool:
        """Whether h and g are functions of each vertex's own distance from the
        anchor: neither is a per-vertex sequence. Numbers are, and so is every
        formula :func:`evaluate_field` accepts."""
        return not any(isinstance(f, _SEQUENCES) for f in (self.h, self.g))

    def on(self, graph: WeightedGraph, x0: int) -> ProblemSpec:
        """Evaluate the data on a concrete graph, anchored at x0."""
        return self._at(graph_distance(graph, x0))

    def _at(self, dist: np.ndarray) -> ProblemSpec:
        """Evaluate the data on vertices (or cells) at the given hop distances."""
        dist = dist.astype(np.float64)
        return ProblemSpec(
            p=self.p,
            alpha=self.alpha,
            delta=self.delta,
            theta=self.theta,
            h=evaluate_field(self.h, dist, "h"),
            g=evaluate_field(self.g, dist, "g"),
        )
