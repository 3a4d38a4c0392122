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
graph section alternatively takes {"explicit": {"n":..., "edges":...,
"mu":...}, "x0": 0}.  The solver and truncation sections are optional.

Exit codes: 0 success, 1 numerical failure, 2 validation failure.
Identical config and seed produce bit-identical report files; all floats
are printed with 17 significant digits.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
from dataclasses import replace

from .errors import (
    ConsistencyError,
    DegenerateConstraintError,
    HypothesisError,
    InfeasibleConstraintError,
    TruncationError,
)
from .families import GraphFamily, ProblemFamily
from .graph import TruncationSpec, truncate_ball
from .solver import SolveOptions, choose_truncation_radius, solve
from .verify import (
    exhaustion_study,
    hypotheses_check,
    inequality_suite,
    residual_report,
)

__all__ = ["main"]

log = logging.getLogger("yamabe")

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_VALIDATION = 2

_SOLVER_KEYS = {
    "max_iters": int,
    "grad_tol": float,
    "step_init": float,
    "backtrack": float,
    "armijo": float,
    "seed": int,
    "init": str,
    "x0": int,
    "constraint_tol": float,
    "step_floor": float,
}
_RUNTIME_ERRORS = (
    InfeasibleConstraintError,
    DegenerateConstraintError,
    ConsistencyError,
    TruncationError,
    RuntimeError,
)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def dumps17(obj, indent: int = 0) -> str:
    """JSON text with every float at 17 significant digits."""
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
        return _fmt(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    if hasattr(obj, "item") and getattr(obj, "ndim", None) == 0:
        return dumps17(obj.item(), indent)
    if hasattr(obj, "tolist"):
        return dumps17(obj.tolist(), indent)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps17(obj))
        fh.write("\n")


def _load_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("config root must be a JSON object")
    return cfg


def _build_graph_family(cfg: dict) -> GraphFamily:
    sec = cfg.get("graph")
    if not isinstance(sec, dict):
        raise ValueError("config needs a graph section")
    if "explicit" in sec:
        return GraphFamily(
            "explicit", {"data": sec["explicit"], "x0": sec.get("x0", 0)}
        )
    family = sec.get("family")
    if not isinstance(family, str):
        raise ValueError("graph section needs a family name or an explicit graph")
    params = sec.get("params", {})
    if not isinstance(params, dict):
        raise ValueError("graph params must be a JSON object")
    return GraphFamily(family, params)


def _build_problem_family(cfg: dict) -> ProblemFamily:
    sec = cfg.get("problem")
    if not isinstance(sec, dict):
        raise ValueError("config needs a problem section")
    unknown = set(sec) - {"p", "alpha", "delta", "theta", "h", "g"}
    if unknown:
        raise ValueError(f"unknown problem keys: {sorted(unknown)}")
    for key in ("p", "alpha", "delta"):
        if key not in sec:
            raise ValueError(f"problem section needs {key}")
    return ProblemFamily(
        p=float(sec["p"]),
        alpha=float(sec["alpha"]),
        delta=float(sec["delta"]),
        theta=float(sec.get("theta", 1.0)),
        h=sec.get("h", 1.0),
        g=sec.get("g", 1.0),
    )


def _solver_section(cfg: dict) -> dict:
    sec = cfg.get("solver", {})
    if not isinstance(sec, dict):
        raise ValueError("solver section must be a JSON object")
    unknown = set(sec) - set(_SOLVER_KEYS)
    if unknown:
        raise ValueError(f"unknown solver keys: {sorted(unknown)}")
    return {key: _SOLVER_KEYS[key](sec[key]) for key in sec}


def _build_options(cfg: dict, x0: int) -> SolveOptions:
    kwargs = _solver_section(cfg)
    kwargs.pop("seed", None)
    kwargs.setdefault("x0", x0)
    return SolveOptions(**kwargs)


def _suite_seed(cfg: dict, seed_override: int | None) -> int:
    """Seed of the inequality suite: --seed, else solver.seed, else 0."""
    seed = _solver_section(cfg).get("seed", 0)
    return seed if seed_override is None else int(seed_override)


def _materialize(cfg: dict):
    """Config -> (graph, spec, anchor, truncation report or None)."""
    fam = _build_graph_family(cfg)
    pfam = _build_problem_family(cfg)
    graph, x0 = fam.materialize()
    spec = pfam.on(graph, x0)
    tsec = cfg.get("truncation")
    if tsec is None:
        return graph, spec, x0, None
    if not isinstance(tsec, dict):
        raise ValueError("truncation section must be a JSON object")
    unknown = set(tsec) - {"epsilon", "x0", "r_max"}
    if unknown:
        raise ValueError(f"unknown truncation keys: {sorted(unknown)}")
    tx0 = int(tsec.get("x0", x0))
    r_max = tsec.get("r_max")
    choice = choose_truncation_radius(
        graph,
        spec,
        tx0,
        float(tsec["epsilon"]),
        r_max=None if r_max is None else int(r_max),
    )
    tr = truncate_ball(graph, TruncationSpec(tx0, choice.radius))
    info = {
        "radius": choice.radius,
        "tail_value": choice.tail_value,
        "k_tail_bound": choice.k_tail_bound,
        "gamma_est": choice.gamma_est,
        "epsilon": choice.epsilon,
    }
    return tr.graph, spec.restrict(tr.new_to_old), int(tr.old_to_new[tx0]), info


def cmd_solve(args) -> int:
    try:
        cfg = _load_config(args.config)
        graph, spec, x0, trunc_info = _materialize(cfg)
        opts = _build_options(cfg, x0)
        seed = _suite_seed(cfg, args.seed)
        hyp = hypotheses_check(graph, spec)
    except TruncationError as exc:
        print(f"truncation failed: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, KeyError, TypeError, OSError, HypothesisError) as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    os.makedirs(args.out, exist_ok=True)
    log.info("solving on %d vertices", graph.n)
    try:
        res = solve(graph, spec, opts)
    except _RUNTIME_ERRORS as exc:
        label = (
            "infeasible constraint"
            if isinstance(exc, InfeasibleConstraintError)
            else "solver failure"
        )
        print(f"{label}: {exc}", file=sys.stderr)
        _write_json(
            os.path.join(args.out, "report.json"),
            {"error": f"{label}: {exc}", "hypotheses": hyp, "truncation": trunc_info},
        )
        return EXIT_NUMERICAL
    suite = inequality_suite(graph, spec, trials=args.trials, seed=seed)
    report = {
        "n": graph.n,
        "p": spec.p,
        "alpha": spec.alpha,
        "delta": spec.delta,
        "theta": spec.theta,
        "seed": seed,
        "gamma": res.gamma,
        "lambda": res.lam,
        "eigen_factor": res.eigen_factor,
        "eigen_factor_is_unit": res.eigen_factor_is_unit,
        "k_value": res.k_value,
        "residual_sup": res.residual_sup,
        "residual_l2": res.residual_l2,
        "iters": res.iters,
        "converged": res.converged,
        "positive": res.positive,
        "min_u": res.min_u,
        "truncation": trunc_info,
        "hypotheses": hyp,
        "inequalities": suite,
    }
    _write_json(os.path.join(args.out, "report.json"), report)
    per_vertex = residual_report(graph, spec, res.u, eigen_factor=res.eigen_factor)
    with open(
        os.path.join(args.out, "solution.csv"), "w", encoding="utf-8", newline=""
    ) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["vertex", "u", "residual"])
        for x in range(graph.n):
            writer.writerow([x, _fmt(res.u[x]), _fmt(per_vertex.residual[x])])
    print(
        f"gamma={_fmt(res.gamma)} lambda={_fmt(res.lam)} "
        f"eigen_factor={_fmt(res.eigen_factor)} converged={res.converged}"
    )
    return EXIT_OK if res.converged and res.positive else EXIT_NUMERICAL


def _parse_radii(text: str | None) -> list[int]:
    if not text:
        raise ValueError("sweep needs a nonempty --radii list")
    radii = [int(tok) for tok in text.split(",") if tok.strip()]
    if not radii:
        raise ValueError("sweep needs a nonempty --radii list")
    return radii


def cmd_sweep(args) -> int:
    try:
        radii = _parse_radii(args.radii)
        cfg = _load_config(args.config)
        fam = _build_graph_family(cfg)
        pfam = _build_problem_family(cfg)
        opts = _build_options(cfg, 0)
    except (ValueError, KeyError, TypeError, OSError) as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    os.makedirs(args.out, exist_ok=True)
    try:
        study = exhaustion_study(fam, pfam, radii, opts)
    except (ValueError, HypothesisError) as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except _RUNTIME_ERRORS as exc:
        print(f"sweep failed: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    with open(
        os.path.join(args.out, "sweep.csv"), "w", encoding="utf-8", newline=""
    ) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["R", "gamma", "lambda", "tail_bound", "converged"])
        for row in study["rows"]:
            writer.writerow(
                [
                    row["R"],
                    _fmt(row["gamma"]),
                    _fmt(row["lambda"]),
                    _fmt(row["tail_bound"]),
                    "true" if row["converged"] else "false",
                ]
            )
    for row in study["rows"]:
        print(
            f"R={row['R']} gamma={_fmt(row['gamma'])} "
            f"tail_bound={_fmt(row['tail_bound'])} converged={row['converged']}"
        )
    return EXIT_OK if all(row["converged"] for row in study["rows"]) else EXIT_NUMERICAL


def cmd_verify(args) -> int:
    try:
        cfg = _load_config(args.config)
        graph, spec, x0, _ = _materialize(cfg)
        seed = _suite_seed(cfg, args.seed)
        hyp = hypotheses_check(graph, spec)
    except (ValueError, KeyError, TypeError, OSError, HypothesisError, TruncationError) as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    suite = inequality_suite(graph, spec, trials=args.trials, seed=seed)
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
    return EXIT_OK if suite["passed"] else EXIT_NUMERICAL


def _configure_logging() -> None:
    level = os.environ.get("YAMABE_LOG", "warning").upper()
    if level not in ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL"):
        level = "WARNING"
    logging.basicConfig(
        level=getattr(logging, level),
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )


def main(argv=None) -> int:
    _configure_logging()
    parser = argparse.ArgumentParser(
        prog="yamabe",
        description="Constrained p-Dirichlet minimization on weighted graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="minimize, rescale, and report one instance")
    ps.add_argument("--config", required=True, help="JSON config path")
    ps.add_argument("--out", default=".", help="output directory")
    ps.add_argument("--seed", type=int, default=None, help="inequality-suite seed")
    ps.add_argument("--trials", type=int, default=200, help="inequality trials")
    ps.set_defaults(func=cmd_solve)

    pw = sub.add_parser("sweep", help="nested-truncation study over radii")
    pw.add_argument("--config", required=True, help="JSON config path")
    pw.add_argument("--out", default=".", help="output directory")
    pw.add_argument(
        "--seed", type=int, default=None, help="accepted and unused: sweep draws nothing random"
    )
    pw.add_argument("--radii", default="", help="comma-separated radii, e.g. 4,8,16")
    pw.set_defaults(func=cmd_sweep)

    pv = sub.add_parser("verify", help="hypothesis checks and inequality suite")
    pv.add_argument("--config", required=True, help="JSON config path")
    pv.add_argument("--out", default=".", help="output directory")
    pv.add_argument("--seed", type=int, default=None, help="suite seed")
    pv.add_argument("--trials", type=int, default=1000, help="inequality trials")
    pv.set_defaults(func=cmd_verify)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
