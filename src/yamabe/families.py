"""Graph families and formula-defined problem data.

A GraphFamily names a ``graph._FAMILIES`` entry and takes only the params
that entry lists. The coefficient fields h and g of a ProblemFamily are
numbers, per-vertex sequences, or formulas in the graph distance from the
anchor ("1+dist^4") in the grammar of :func:`evaluate_field`, evaluated
after each ball is materialized.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .functionals import ProblemSpec
from .graph import _FAMILIES, WeightedGraph, _integer, generate, graph_distance, graph_from_dict

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
    """The code of a formula in the grammar; anything else raises ValueError naming it."""
    try:
        tree = ast.parse(expr.replace("^", "**"), mode="eval")
        if _in_grammar(tree.body):
            return compile(tree, "<field formula>", "eval")
    except (SyntaxError, ValueError, OverflowError, RecursionError, MemoryError):
        pass
    raise ValueError(f"field formula {expr!r} is not in the grammar: {_GRAMMAR}")


def evaluate_field(expr, dist: np.ndarray) -> np.ndarray:
    """Evaluate a coefficient field given per-vertex distances.

    Accepts a number (constant field), a sequence (explicit values), or a
    formula string in the variable dist, where ^ means power, built as
    ``_GRAMMAR`` lists; anything else (attributes, subscripts, keywords, @,
    %, bit operators) raises ValueError naming it. So a formula gives each
    vertex a value from its own distance alone.
    """
    dist = np.asarray(dist, dtype=np.float64)
    n = dist.shape[0]
    if isinstance(expr, bool):
        raise ValueError("coefficient field cannot be a boolean")
    if isinstance(expr, (int, float)):
        return np.full(n, float(expr))
    if isinstance(expr, _SEQUENCES):
        arr = np.asarray(expr, dtype=np.float64)
        if arr.shape != (n,):
            raise ValueError(f"explicit field has length {arr.size}, expected {n}")
        return arr
    if not isinstance(expr, str):
        raise ValueError(f"cannot interpret coefficient field {expr!r}")
    code = _compile(expr)
    try:
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
        params = dict(self.params)
        if self.name == "explicit":
            allowed = {"data", "x0"}
        else:
            _, extent, offset, shape, quotient = _FAMILIES[self.name]
            allowed = {extent, *shape, "weight", "mu"}
        unknown = set(params) - allowed
        if unknown:
            raise ValueError(f"unknown {self.name} params: {sorted(unknown)}")
        if self.name == "explicit":
            if cells:
                return None
            return graph_from_dict(params["data"]), _integer(params.get("x0", 0), "graph param x0")
        fill = None if radius is None or offset is None else radius + offset
        size = params.get(extent, fill)
        if size is None:
            alt = " or a radius" if offset is not None and extent != "radius" else ""
            raise ValueError(f"{self.name} family needs {extent}{alt}")
        for key, default in {**shape, extent: size}.items():
            params[key] = _integer(params.get(key, default), f"graph param {key}")
        if cells and (quotient is None or np.ndim(params.get("mu", 1.0))):
            return None
        return generate(self.name, cells=cells, **params)


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
        dist = graph_distance(graph, x0).astype(np.float64)
        return ProblemSpec(
            p=self.p,
            alpha=self.alpha,
            delta=self.delta,
            theta=self.theta,
            h=evaluate_field(self.h, dist),
            g=evaluate_field(self.g, dist),
        )
