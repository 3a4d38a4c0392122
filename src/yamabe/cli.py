"""Command-line front end: JSON configs in, deterministic report files out.

Config layout (JSON):

    {
      "graph":      {"family": "path", "params": {"n": 20}},
      "problem":    {"p": 4, "alpha": 3, "delta": 0.4, "theta": 1,
                     "h": "1+dist^4", "g": 1},
      "solver":     {"grad_tol": 1e-8, "seed": 0},
      "truncation": {"epsilon": 0.5, "r_max": 64}
    }

Coefficient fields h and g are numbers, explicit per-vertex lists, or
formulas in dist (graph distance from the anchor); ^ means power.  The
graph section takes a family and its params (those graph._FAMILIES lists
for it, plus weight and mu), or else {"explicit": {"n":..., "edges":...,
"mu":...}, "x0": 0}.  The solver section (keys max_iters, grad_tol,
seed) and the truncation section (keys epsilon, r_max) are optional.
An integer key takes an integer or an integral float, a number key any
number; neither takes a boolean or a string.
Every solve's descent starts around the graph's anchor, the ball's
anchor under truncation (see solver._initial_iterate).  seed, --seed
over it, seeds verify's inequality suite; solve and sweep draw nothing
random.  Every command reads and checks the whole config through one
parser.

Exit codes, the same for every command: 0 success; 1 numerical failure,
any RuntimeError (non-convergence, a solution that is not positive, a
failed inequality, infeasible constraint, unreachable tail tolerance);
2 invalid config, any ValueError (a violated hypothesis, malformed JSON)
or OSError.  Every nonzero exit names its reason on stderr; a failure
found after the report files are written leaves them in place.
Identical config and seed produce bit-identical report files; all finite
floats are printed with 17 significant digits, and JSON writes the others
as json.dumps does (Infinity, -Infinity, NaN).
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, replace

from .errors import InfeasibleConstraintError, TruncationError
from .families import GraphFamily, ProblemFamily
from .graph import _integer, _number
from .solver import SolveOptions, _ball_problem, choose_truncation_radius, solve
from .verify import exhaustion_study, hypotheses_check, inequality_suite

__all__ = ["main"]

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_VALIDATION = 2


def _same(value, what):
    return value


def _int_or_none(value, what) -> int | None:
    return None if value is None else _integer(value, what)


# each section's keys and the check that converts each value
_SOLVER_KEYS = {"max_iters": _integer, "grad_tol": _number, "seed": _integer}
_PROBLEM_KEYS = {"p": _number, "alpha": _number, "delta": _number, "theta": _number,
                 "h": _same, "g": _same}
_TRUNCATION_KEYS = {"epsilon": _number, "r_max": _int_or_none}
# the graph section's two forms, each by the key that names it
_GRAPH_FORMS = {"family": {"family", "params"}, "explicit": {"explicit", "x0"}}
# stderr label of a numerical failure nothing more specific names
_FAILURE_LABELS = {"solve": "solver failure", "sweep": "sweep failed", "verify": "verify failed"}


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def dumps17(obj, indent: int = 0) -> str:
    """JSON text with every finite float at 17 significant digits."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f"{inner}{json.dumps(str(k))}: {dumps17(v, indent + 1)}"
            for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ",\n".join(f"{inner}{dumps17(v, indent + 1)}" for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        # inf and nan as json.dumps writes them (Infinity, NaN), which json.loads reads
        return _fmt(obj) if math.isfinite(obj) else json.dumps(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    if hasattr(obj, "item") and getattr(obj, "ndim", None) == 0:
        return dumps17(obj.item(), indent)
    if hasattr(obj, "tolist"):
        return dumps17(obj.tolist(), indent)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _write_csv(path: str, header: str, line: str, rows) -> None:
    """A header, then ``line.format(*row)`` for each row, in one formatting pass.
    No field (an int, a float, true or false) needs quotes, so these are the
    bytes ``csv.writer`` would write."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        fh.writelines(itertools.starmap(line.format, rows))


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps17(obj))
        fh.write("\n")


@dataclass(frozen=True)
class _Config:
    """A config file with every section checked and converted.

    seed is the inequality-suite seed, --seed over solver.seed.
    """

    graph: GraphFamily
    problem: ProblemFamily
    options: SolveOptions
    seed: int
    truncation: dict | None


def _section(cfg: dict, name: str, keys: dict, required=()) -> dict:
    """The named section (absent: empty) with its values converted."""
    sec = cfg.get(name, {})
    if not isinstance(sec, dict):
        raise ValueError(f"{name} section must be a JSON object")
    unknown = set(sec) - set(keys)
    if unknown:
        raise ValueError(f"unknown {name} keys: {sorted(unknown)}")
    for key in required:
        if key not in sec:
            raise ValueError(f"{name} section needs {key}")
    return {key: keys[key](value, f"{name} {key}") for key, value in sec.items()}


def _graph_family(sec) -> GraphFamily:
    if not isinstance(sec, dict):
        raise ValueError("config needs a graph section")
    form = "explicit" if "explicit" in sec else "family"
    stray = set(sec) - _GRAPH_FORMS[form]
    if stray:
        raise ValueError(f"graph section with {form} does not take {sorted(stray)}")
    if form == "explicit":
        return GraphFamily("explicit", {"data": sec["explicit"], "x0": sec.get("x0", 0)})
    family = sec.get("family")
    if not isinstance(family, str):
        raise ValueError("graph section needs a family name or an explicit graph")
    params = sec.get("params", {})
    if not isinstance(params, dict):
        raise ValueError("graph params must be a JSON object")
    return GraphFamily(family, params)


def _load_config(args) -> _Config:
    """Read and check the whole config; malformed input raises ValueError."""
    with open(args.config, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("config root must be a JSON object")
    solver = _section(cfg, "solver", _SOLVER_KEYS)
    seed = solver.pop("seed", 0)
    truncation = None
    if cfg.get("truncation") is not None:
        truncation = _section(cfg, "truncation", _TRUNCATION_KEYS, ("epsilon",))
    return _Config(
        graph=_graph_family(cfg.get("graph")),
        problem=ProblemFamily(**_section(cfg, "problem", _PROBLEM_KEYS, ("p", "alpha", "delta"))),
        options=SolveOptions(**solver),
        seed=seed if args.seed is None else args.seed,
        truncation=truncation,
    )


def _materialize(conf: _Config):
    """Config -> (graph, spec, anchor, truncation report or None).

    With a truncation section, a family sized by a radius is built out to
    r_max, and the solve runs on the chosen ball of it."""
    trunc = conf.truncation
    graph, x0 = conf.graph.materialize(None if trunc is None else trunc.get("r_max"))
    spec = conf.problem.on(graph, x0)
    if trunc is None:
        return graph, spec, x0, None
    choice = choose_truncation_radius(
        graph, spec, x0, trunc["epsilon"], r_max=trunc.get("r_max")
    )
    ball, spec_r, anchor = _ball_problem(graph, spec, x0, choice.radius)
    return ball, spec_r, anchor, asdict(choice)


def _failure_label(exc: RuntimeError, command: str) -> str:
    if isinstance(exc, TruncationError):
        return "truncation failed"
    if isinstance(exc, InfeasibleConstraintError):
        return "infeasible constraint"
    return _FAILURE_LABELS[command]


def cmd_solve(args) -> int:
    conf = _load_config(args)
    graph, spec, x0, trunc_info = _materialize(conf)
    try:
        res = solve(graph, spec, replace(conf.options, x0=x0))
    except RuntimeError as exc:
        # solve() checks the hypotheses before it can fail numerically
        os.makedirs(args.out, exist_ok=True)
        _write_json(
            os.path.join(args.out, "report.json"),
            {
                "error": f"{_failure_label(exc, 'solve')}: {exc}",
                "hypotheses": hypotheses_check(graph, spec),
                "truncation": trunc_info,
            },
        )
        raise
    os.makedirs(args.out, exist_ok=True)
    report = {
        "n": graph.n,
        "p": spec.p,
        "alpha": spec.alpha,
        "delta": spec.delta,
        "theta": spec.theta,
        "gamma": res.gamma,
        "lambda": res.lam,
        "eigen_factor": res.eigen_factor,
        "eigen_factor_is_unit": res.eigen_factor_is_unit,
        "k_value": res.trace.k_value,
        "residual_sup": res.residual_sup,
        "residual_l2": res.residual_l2,
        "residual_rel_sup": res.residual_rel_sup,
        "iters": res.trace.iters,
        "line_search_trials": res.trace.trials,
        "converged": res.converged,
        "positive": res.positive,
        "min_u": res.min_u,
        "truncation": trunc_info,
        "hypotheses": res.hypotheses,
    }
    _write_json(os.path.join(args.out, "report.json"), report)
    _write_csv(
        os.path.join(args.out, "solution.csv"),
        "vertex,u,residual",
        "{},{:.17g},{:.17g}\n",
        zip(range(graph.n), res.u.tolist(), res.residual.tolist()),
    )
    print(
        f"gamma={_fmt(res.gamma)} lambda={_fmt(res.lam)} "
        f"eigen_factor={_fmt(res.eigen_factor)} converged={res.converged}"
    )
    if not res.positive:
        raise RuntimeError(f"solution not positive: min u = {_fmt(res.min_u)}")
    if not res.converged:
        raise RuntimeError(f"not converged after {res.trace.iters} iterations")
    return EXIT_OK


def _parse_radii(text: str) -> list[int]:
    radii = [int(tok) for tok in text.split(",") if tok.strip()]
    if not radii:
        raise ValueError("sweep needs a nonempty --radii list")
    return radii


def cmd_sweep(args) -> int:
    radii = _parse_radii(args.radii)
    conf = _load_config(args)
    study = exhaustion_study(conf.graph, conf.problem, radii, conf.options)
    os.makedirs(args.out, exist_ok=True)
    _write_csv(
        os.path.join(args.out, "sweep.csv"),
        "R,gamma,lambda,tail_bound,converged",
        "{},{:.17g},{:.17g},{:.17g},{}\n",
        (
            (row["R"], row["gamma"], row["lambda"], row["tail_bound"],
             "true" if row["converged"] else "false")
            for row in study["rows"]
        ),
    )
    for row in study["rows"]:
        print(
            f"R={row['R']} gamma={_fmt(row['gamma'])} "
            f"tail_bound={_fmt(row['tail_bound'])} converged={row['converged']}"
        )
    unconverged = [row["R"] for row in study["rows"] if not row["converged"]]
    if unconverged:
        raise RuntimeError(f"not converged at radii {unconverged}")
    return EXIT_OK


def cmd_verify(args) -> int:
    conf = _load_config(args)
    graph, spec, _, _ = _materialize(conf)
    hyp = hypotheses_check(graph, spec)
    suite = inequality_suite(graph, spec, trials=args.trials, seed=conf.seed)
    os.makedirs(args.out, exist_ok=True)
    _write_json(
        os.path.join(args.out, "verify.json"),
        {"hypotheses": hyp, "inequalities": suite},
    )
    for name, state in suite["inequalities"].items():
        print(
            f"{name}: {'pass' if state['passed'] else 'FAIL'} "
            f"max_ratio={_fmt(state['max_ratio'])}"
        )
    if not suite["passed"]:
        failed = [name for name, state in suite["inequalities"].items() if not state["passed"]]
        raise RuntimeError(f"inequalities violated: {failed}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="yamabe",
        description="Constrained p-Dirichlet minimization on weighted graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parsers = {}
    for name, func, summary in (
        ("solve", cmd_solve, "minimize, rescale, and report one instance"),
        ("sweep", cmd_sweep, "nested-truncation study over radii"),
        ("verify", cmd_verify, "hypothesis checks and inequality suite"),
    ):
        ps = sub.add_parser(name, help=summary)
        ps.add_argument("--config", required=True, help="JSON config path")
        ps.add_argument("--out", default=".", help="output directory")
        ps.add_argument(
            "--seed", type=int, default=None,
            help="inequality-suite seed; solve and sweep accept it and draw nothing random",
        )
        ps.set_defaults(func=func)
        parsers[name] = ps
    parsers["sweep"].add_argument("--radii", default="", help="comma-separated radii, e.g. 4,8,16")
    parsers["verify"].add_argument("--trials", type=int, default=1000, help="inequality trials")

    args = parser.parse_args(argv)
    # the one exit-code policy, keyed on the errors.py hierarchy; any other
    # exception is a bug and propagates
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except RuntimeError as exc:
        print(f"{_failure_label(exc, args.command)}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
