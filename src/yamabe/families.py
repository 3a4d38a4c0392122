"""Graph families and formula-defined problem data.

A GraphFamily names a ``graph._FAMILIES`` entry and takes only the params
that entry lists. On an infinite family the coefficient fields h and g
cannot be arrays; they are formulas in the graph distance from the
anchor ("1+dist^4"), evaluated after each ball is materialized.
"""

from __future__ import annotations

import ast
import numbers
import re
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .functionals import ProblemSpec
from .graph import _FAMILIES, WeightedGraph, _integer, generate, graph_distance, graph_from_dict

__all__ = ["GraphFamily", "ProblemFamily", "evaluate_field"]

_ALLOWED = re.compile(r"^[0-9a-zA-Z_+\-*/(). ,^]*$")
_NAMESPACE = {
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "minimum": np.minimum,
    "maximum": np.maximum,
    "pi": np.pi,
    "e": np.e,
}

_ELEMENTWISE = (
    ast.Expression, ast.BinOp, ast.UnaryOp, ast.operator, ast.unaryop,
    ast.Call, ast.Name, ast.Constant, ast.Load,
)


def _elementwise(expr) -> bool:
    """Whether a field gives each vertex a value from its own distance alone:
    a number, or a formula whose syntax tree holds only arithmetic, calls of
    names (every function in the namespace is a ufunc), names and numbers."""
    if isinstance(expr, numbers.Real) and not isinstance(expr, bool):
        return True
    if not isinstance(expr, str):
        return False
    try:
        tree = ast.parse(expr.replace("^", "**"), mode="eval")
    except SyntaxError:
        return False
    return all(
        isinstance(node, _ELEMENTWISE)
        and not (isinstance(node, ast.Call) and not isinstance(node.func, ast.Name))
        for node in ast.walk(tree)
    )


def evaluate_field(expr, dist: np.ndarray) -> np.ndarray:
    """Evaluate a coefficient field given per-vertex distances.

    Accepts a number (constant field), a sequence (explicit values), or a
    formula string in the variable dist, where ^ means power.
    """
    dist = np.asarray(dist, dtype=np.float64)
    n = dist.shape[0]
    if isinstance(expr, bool):
        raise ValueError("coefficient field cannot be a boolean")
    if isinstance(expr, (int, float)):
        return np.full(n, float(expr))
    if isinstance(expr, (list, tuple, np.ndarray)):
        arr = np.asarray(expr, dtype=np.float64)
        if arr.shape != (n,):
            raise ValueError(f"explicit field has length {arr.size}, expected {n}")
        return arr
    if not isinstance(expr, str):
        raise ValueError(f"cannot interpret coefficient field {expr!r}")
    if "__" in expr or not _ALLOWED.match(expr):
        raise ValueError(f"malformed field formula: {expr!r}")
    namespace = dict(_NAMESPACE)
    namespace["dist"] = dist
    try:
        value = eval(expr.replace("^", "**"), {"__builtins__": {}}, namespace)
    except Exception as exc:
        raise ValueError(f"field formula {expr!r} failed to evaluate: {exc}") from exc
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim == 0:
        return np.full(n, float(arr))
    if arr.shape != (n,):
        raise ValueError(f"field formula {expr!r} has wrong shape {arr.shape}")
    return arr.copy()


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
        anchor: numbers, or formulas built from dist, numbers and the named
        functions by arithmetic alone. Per-vertex sequences are not, nor is a
        formula that reads the whole dist array through an attribute
        (``dist.size``, ``maximum.reduce(dist)``): its value depends on
        how many vertices share each distance."""
        return all(_elementwise(f) for f in (self.h, self.g))

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
