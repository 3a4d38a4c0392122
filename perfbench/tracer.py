"""Span tracer for the traced benchmark run.

`Tracer.install()` wraps the public functions of every `yamabe` module and
rebinds each wrapper at every place the original object is bound: the
defining module, each module that imported it by name (for example both
`yamabe.functionals.energy_J` and `yamabe.solver.energy_J`), and the
package namespace. `uninstall()` puts the originals back. Untraced runs
never call `install()`, so they run the package unmodified.

A wrapper records a span (name, layer, start, end, parent) only while an
op is open (`begin_op`/`end_op`); calls the harness makes to check
outputs run untraced. Spans are folded into per-layer and per-group sums
as they close instead of being kept, because a degenerate instance makes
about 1e5 calls:

* a layer's self time is the time its spans cover minus the time their
  child spans cover;
* a group's inclusive time counts only its outermost span, so nested
  spans of one group (a generator calling `from_edges`) are not counted
  twice;
* `unattributed` is op wall time outside every top-level span.

So the layer self times plus the unattributed time add up to the op wall
time, which `perfbench/selftest.py` checks.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

LAYERS = (
    "graph",
    "families",
    "functionals",
    "operators",
    "kernels",
    "solver",
    "verify",
    "cli",
)

# (module, attribute, layer, group). The group names the metric family a
# span feeds; None means the span only adds to its layer's self time.
# Trivial helpers (graph.as_vertex_function, graph.integrate, graph.lq_norm)
# stay unwrapped so their time counts toward the calling layer, which is
# where operators.self_s ("validation") expects it.
TARGETS = (
    ("yamabe.graph", "WeightedGraph.from_edges", "graph", "build"),
    ("yamabe.graph", "graph_from_dict", "graph", "build"),
    ("yamabe.graph", "path_graph", "graph", "build"),
    ("yamabe.graph", "cycle_graph", "graph", "build"),
    ("yamabe.graph", "lattice_ball", "graph", "build"),
    ("yamabe.graph", "tree_ball", "graph", "build"),
    ("yamabe.graph", "generate", "graph", "build"),
    ("yamabe.graph", "graph_distance", "graph", "distance"),
    ("yamabe.graph", "eccentricity", "graph", None),
    ("yamabe.graph", "truncate_ball", "graph", "truncate"),
    ("yamabe.families", "GraphFamily.materialize", "families", "materialize"),
    ("yamabe.families", "ProblemFamily.on", "families", "fields"),
    ("yamabe.families", "evaluate_field", "families", None),
    ("yamabe.functionals", "energy_J", "functionals", "energy"),
    ("yamabe.functionals", "J_gradient", "functionals", "gradient"),
    ("yamabe.functionals", "constraint_K", "functionals", "constraint"),
    ("yamabe.functionals", "K_derivative_action", "functionals", None),
    ("yamabe.functionals", "h_norm", "functionals", None),
    ("yamabe.functionals", "nonlinearity_G", "functionals", None),
    ("yamabe.functionals", "kprime_lipschitz_probe", "functionals", None),
    ("yamabe.operators", "p_laplacian", "operators", None),
    ("yamabe.operators", "p_gradient_norm", "operators", None),
    ("yamabe.operators", "dirichlet_energy", "operators", None),
    ("yamabe.operators", "ibp_identity_check", "operators", None),
    ("yamabe._kernels", "p_laplacian_kernel", "kernels", "p_laplacian"),
    ("yamabe._kernels", "grad_power_kernel", "kernels", "grad_power"),
    ("yamabe._kernels", "edge_energy_kernel", "kernels", "edge_energy"),
    ("yamabe.solver", "solve", "solver", "solve"),
    ("yamabe.solver", "minimize_constrained", "solver", "minimize"),
    ("yamabe.solver", "lagrange_multiplier", "solver", "multiplier"),
    ("yamabe.solver", "rescale_solution", "solver", None),
    ("yamabe.solver", "choose_truncation_radius", "solver", "truncation_choice"),
    ("yamabe.solver", "k_tail_bound", "solver", None),
    ("yamabe.verify", "hypotheses_check", "verify", "hypotheses"),
    ("yamabe.verify", "residual_report", "verify", "certify"),
    ("yamabe.verify", "positivity_certificate", "verify", "certify"),
    ("yamabe.verify", "inequality_suite", "verify", "inequality"),
    ("yamabe.verify", "exhaustion_study", "verify", "exhaustion"),
    ("yamabe.cli", "main", "cli", None),
    ("yamabe.cli", "cmd_solve", "cli", None),
    ("yamabe.cli", "cmd_sweep", "cli", None),
    ("yamabe.cli", "cmd_verify", "cli", None),
)


class Tracer:
    """Wraps `yamabe` and folds the spans of each open op into sums."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []
        self._stack: list[list] = []  # [name, layer, group, child_s]
        self._depth: dict[str, int] = defaultdict(int)
        self.op_open = False
        self.ops = 0
        self.op_wall = 0.0
        self.top_level = 0.0
        self.layer_self = dict.fromkeys(LAYERS, 0.0)
        self.group_s: dict[str, float] = defaultdict(float)
        self.group_self: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)

    # -- op boundaries -------------------------------------------------
    def begin_op(self) -> None:
        self.op_open = True

    def end_op(self, wall: float) -> None:
        self.op_open = False
        self.ops += 1
        self.op_wall += wall

    def count(self, name: str, value: float) -> None:
        self.counts[name] += value

    # -- wrapping ------------------------------------------------------
    def install(self) -> None:
        modules = [
            m
            for name, m in sys.modules.items()
            if m is not None and (name == "yamabe" or name.startswith("yamabe."))
        ]
        for mod_name, attr, layer, group in TARGETS:
            mod = sys.modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                if isinstance(original, classmethod):
                    wrapped = classmethod(self._wrap(original.__func__, attr, layer, group))
                else:
                    wrapped = self._wrap(original, attr, layer, group)
                self._rebind(cls, meth, original, wrapped)
                continue
            original = getattr(mod, attr)
            wrapped = self._wrap(original, attr, layer, group)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._rebind(m, key, original, wrapped)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()

    def _rebind(self, owner, key, original, wrapped) -> None:
        self._saved.append((owner, key, original))
        setattr(owner, key, wrapped)

    def _wrap(self, fn, name: str, layer: str, group: str | None):
        tracer = self
        hook = _HOOKS.get(name)
        group_key = None if group is None else f"{layer}.{group}"

        def wrapper(*args, **kwargs):
            if not tracer.op_open:
                return fn(*args, **kwargs)
            stack = tracer._stack
            if name == "energy_J":
                tracer._note_line_search_trial()
            frame = [name, layer, group_key, 0.0]
            stack.append(frame)
            if group_key is not None:
                tracer._depth[group_key] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                span = end - start
                own = span - frame[3]
                tracer.layer_self[layer] += own
                tracer.calls[name] += 1
                if stack:
                    stack[-1][3] += span
                else:
                    tracer.top_level += span
                if group_key is not None:
                    tracer.group_self[group_key] += own
                    tracer._depth[group_key] -= 1
                    if tracer._depth[group_key] == 0:
                        tracer.group_s[group_key] += span
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    def _note_line_search_trial(self) -> None:
        # energy_J calls whose nearest solver-layer caller is the descent
        for frame in reversed(self._stack):
            if frame[1] == "solver":
                if frame[0] == "minimize_constrained":
                    self.counts["energy_in_minimize"] += 1
                return

    # -- metrics -------------------------------------------------------
    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-op averages over the traced ops, keyed by metric name."""
        ops = max(self.ops, 1)
        c, s, calls = self.counts, self.group_s, self.calls

        def per_op(value):
            return value / ops

        kernel_calls = sum(
            calls[k] for k in ("p_laplacian_kernel", "grad_power_kernel", "edge_energy_kernel")
        )
        kernel_s = sum(s[f"kernels.{k}"] for k in ("p_laplacian", "grad_power", "edge_energy"))
        iters = c["iters"]
        ls_trials = c["energy_in_minimize"] - calls["minimize_constrained"]
        operator_calls = sum(
            calls[k]
            for k in ("p_laplacian", "p_gradient_norm", "dirichlet_energy", "ibp_identity_check")
        )
        out = {
            "graph.build_s": (per_op(s["graph.build"]), "s/op"),
            "graph.vertices_built": (per_op(c["vertices_built"]), "count/op"),
            "graph.distance_calls": (per_op(calls["graph_distance"]), "count/op"),
            "graph.distance_s": (per_op(s["graph.distance"]), "s/op"),
            "graph.truncate_calls": (per_op(calls["truncate_ball"]), "count/op"),
            "graph.truncate_s": (per_op(s["graph.truncate"]), "s/op"),
            "families.materialize_s": (per_op(s["families.materialize"]), "s/op"),
            "families.fields_s": (per_op(s["families.fields"]), "s/op"),
            "solver.solves": (per_op(calls["solve"]), "count/op"),
            "solver.iters": (per_op(iters), "count/op"),
            "solver.ls_trials": (per_op(ls_trials), "count/op"),
            "solver.ls_trials_per_iter": (ls_trials / iters if iters else 0.0, "count"),
            "solver.max_iters_hits": (per_op(c["max_iters_hits"]), "count/op"),
            "solver.stagnated": (per_op(c["stagnated"]), "count/op"),
            "solver.s_per_iter": (s["solver.minimize"] / iters if iters else 0.0, "s"),
            "solver.multiplier_s": (per_op(s["solver.multiplier"]), "s/op"),
            "solver.truncation_choice_s": (per_op(s["solver.truncation_choice"]), "s/op"),
            "functionals.energy_calls": (per_op(calls["energy_J"]), "count/op"),
            "functionals.energy_s": (per_op(s["functionals.energy"]), "s/op"),
            "functionals.gradient_calls": (per_op(calls["J_gradient"]), "count/op"),
            "functionals.gradient_s": (per_op(s["functionals.gradient"]), "s/op"),
            "functionals.constraint_calls": (per_op(calls["constraint_K"]), "count/op"),
            "functionals.constraint_s": (per_op(s["functionals.constraint"]), "s/op"),
            "operators.calls": (per_op(operator_calls), "count/op"),
            "kernels.p_laplacian_calls": (per_op(calls["p_laplacian_kernel"]), "count/op"),
            "kernels.p_laplacian_s": (per_op(s["kernels.p_laplacian"]), "s/op"),
            "kernels.grad_power_calls": (per_op(calls["grad_power_kernel"]), "count/op"),
            "kernels.grad_power_s": (per_op(s["kernels.grad_power"]), "s/op"),
            "kernels.edge_energy_calls": (per_op(calls["edge_energy_kernel"]), "count/op"),
            "kernels.edge_energy_s": (per_op(s["kernels.edge_energy"]), "s/op"),
            "kernels.edge_visits": (per_op(c["edge_visits"]), "count/op"),
            "kernels.bytes_computed": (per_op(c["bytes_computed"]), "B/op"),
            "kernels.ns_per_edge_visit": (
                kernel_s / c["edge_visits"] * 1e9 if c["edge_visits"] else 0.0,
                "ns",
            ),
            "kernels.us_per_call": (kernel_s / kernel_calls * 1e6 if kernel_calls else 0.0, "us"),
            "verify.hypotheses_s": (per_op(s["verify.hypotheses"]), "s/op"),
            "verify.certify_s": (per_op(s["verify.certify"]), "s/op"),
            "verify.inequality_s": (per_op(s["verify.inequality"]), "s/op"),
            "verify.inequality_trials": (per_op(c["inequality_trials"]), "count/op"),
            "verify.exhaustion_self_s": (per_op(self.group_self["verify.exhaustion"]), "s/op"),
            "cli.bytes_written": (per_op(c["cli_bytes_written"]), "B/op"),
            "cli.nonzero_exits": (per_op(c["cli_nonzero_exits"]), "count/op"),
            "trace.op_wall_s": (per_op(self.op_wall), "s/op"),
            "trace.unattributed_s": (per_op(self.op_wall - self.top_level), "s/op"),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (per_op(self.layer_self[layer]), "s/op")
        return out


# -- counters read from arguments and results ---------------------------

def _kernel_hook(vertex_arrays: int):
    # bytes of the CSR arrays (indptr, indices, weights) plus the float64
    # vertex arrays read or written; computed from sizes, not measured
    def hook(tracer, args, kwargs, result):
        indptr, indices = args[0], args[1]
        n = indptr.shape[0] - 1
        nnz = indices.shape[0]
        tracer.counts["edge_visits"] += nnz
        tracer.counts["bytes_computed"] += (
            indptr.nbytes + indices.nbytes + args[2].nbytes + 8 * n * vertex_arrays
        )

    return hook


def _build_hook(tracer, args, kwargs, result):
    if tracer._depth["graph.build"] == 0:
        graph = result[0] if isinstance(result, tuple) else result
        tracer.counts["vertices_built"] += graph.n


def _minimize_hook(tracer, args, kwargs, result):
    trace = result[2]
    opts = args[2] if len(args) > 2 else kwargs.get("opts")
    max_iters = 20000 if opts is None else opts.max_iters
    tracer.counts["iters"] += trace.iters
    tracer.counts["stagnated"] += int(trace.stagnated)
    if not trace.converged and trace.iters >= max_iters:
        tracer.counts["max_iters_hits"] += 1


def _inequality_hook(tracer, args, kwargs, result):
    tracer.counts["inequality_trials"] += int(result["trials"])


def _main_hook(tracer, args, kwargs, result):
    if result != 0:
        tracer.counts["cli_nonzero_exits"] += 1


_HOOKS = {
    # mu, f and the output vertex array; edge_energy reads f only
    "p_laplacian_kernel": _kernel_hook(3),
    "grad_power_kernel": _kernel_hook(3),
    "edge_energy_kernel": _kernel_hook(1),
    "WeightedGraph.from_edges": _build_hook,
    "graph_from_dict": _build_hook,
    "path_graph": _build_hook,
    "cycle_graph": _build_hook,
    "lattice_ball": _build_hook,
    "tree_ball": _build_hook,
    "generate": _build_hook,
    "minimize_constrained": _minimize_hook,
    "inequality_suite": _inequality_hook,
    "main": _main_hook,
}
