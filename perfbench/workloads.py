"""The four benchmark workloads and the output checks of their ops.

Each workload turns a seed into inputs for `yamabe` (graphs, problem
specs, CLI configs) and into rounds of ops. One op is one call into the
package's public API: a `solve`, an `exhaustion_study` or a `cli.main`.
Every round holds the same ops in a new seeded order, so a run of whole
rounds has the same mix of ops whatever its seed.

The checks do not trust the solver's own flags. An op is *failed* when a
check shows a wrong or inconsistent output (or the call raises); it is
*certified* when it is not failed, the package reports success and the
harness' own certificate agrees. An op the package honestly reports as
unsolved (converged=False, a non-zero exit with a message) is neither
failed nor certified; known defects show up this way.

All calls go through the `yamabe` module attributes at call time, so the
tracer's rebinding reaches them.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import math
import os
import shutil
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
import yamabe
import yamabe.cli

FROZEN_PATH = Path(__file__).resolve().parent / "frozen_gamma.json"
# gamma is the minimum of J on {K = 1}; a solution error e moves it by
# O(e^2), so 1e-6 admits any better-converged solver and flags a wrong one
GAMMA_RTOL = 1e-6
LAMBDA_RTOL = 1e-8  # the tolerance of lagrange_multiplier's own cross-check
# op_tail_s is the op time with 10 samples above it; 21 ops put it at or
# above the median
MIN_OPS = 21
# stop starting rounds after this long, so a run on a slow machine still
# ends within its time limit
ROUNDS_CAP_S = 120.0
# one calibration unit follows every CALIBRATION_EVERY_S of op time
CALIBRATION_EVERY_S = 0.01

PARAMS = {
    "instance-grid": {
        "full": {
            "graphs": ("path30", "z2r10", "tree6", "cycle20"),
            "ps": (2.2, 2.5, 3.0, 4.0, 6.0),
            "h_powers": (0, 2, 4),
            # the one flat (p = alpha, h = 1) instance kept; see README
            "flat": ("cycle20", 4.0),
        },
        "tiny": {
            "graphs": ("path30", "cycle20"),
            "ps": (3.0, 6.0),
            "h_powers": (0, 2),
            "flat": None,
        },
    },
    "lattice-large": {
        "full": {"bands": ((60, 64), (88, 92), (116, 120))},
        "tiny": {"bands": ((10, 11), (14, 15))},
    },
    "nested-sweep": {
        "full": {"radii": (8, 16, 32, 64), "universe": 128},
        "tiny": {"radii": (4, 8), "universe": 16},
    },
    "cli-reports": {
        "full": {"radius": 40, "trials": 1000, "radii": "4,8,16,32"},
        "tiny": {"radius": 8, "trials": 20, "radii": "4,8"},
    },
}

GRID_GRAPHS = {
    "path30": lambda: yamabe.path_graph(30),
    "z2r10": lambda: yamabe.lattice_ball(2, 10),
    "tree6": lambda: yamabe.tree_ball(2, 6),
    "cycle20": lambda: yamabe.cycle_graph(20),
}
LATTICE_ALPHAS = (2.5, 3.0, 3.5)
LATTICE_H_POWERS = (2, 4)

# The README's headline config, verbatim.
README_CONFIG = {
    "graph": {"family": "lattice_zd_ball", "params": {"d": 1}},
    "problem": {"p": 4, "alpha": 3, "delta": 0.4, "theta": 1, "h": "1 + dist^4", "g": 1},
    "solver": {"grad_tol": 1e-8, "seed": 0},
    "truncation": {"epsilon": 0.5, "r_max": 64},
}
CLI_GRAD_TOL = 1e-8  # both configs use the default or state 1e-8


@dataclass
class Outcome:
    certified: bool
    problems: list[str] = field(default_factory=list)
    oracle_dev: float | None = None  # |u_bar - c|_inf / c on constant h, g
    bytes_written: int = 0
    notes: list[str] = field(default_factory=list)  # reported, not failures


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], Outcome]


@dataclass
class Workload:
    ops_per_round: int
    make_round: Callable[[], list[Op]]
    warmup: Op
    oracle_probe: Callable[[], Op] | None  # built and run after the timed rounds
    max_nnz: int  # largest CSR array length any op builds


@dataclass
class Record:
    label: str
    wall: float
    outcome: Outcome
    calibration_s: float  # summed time of the calibration units after the op
    calibration_units: int


_CALIBRATION_ARRAY = np.arange(64, dtype=np.float64)


def calibration_unit() -> float:
    """Time one fixed unit of interpreter work and small numpy calls.

    The host's speed drifts by up to 1.5x from minute to minute, and the
    package's per-call overhead drifts with it. The mean time of this
    unit, taken between the ops of a run, measures the speed of the
    machine during that run; it runs no package code.
    """
    start = time.perf_counter()
    for i in range(40):
        float(np.sum(np.abs(_CALIBRATION_ARRAY - i) ** 2.5))
        {j: 2 * j for j in range(20)}
    return time.perf_counter() - start


def run_op(op: Op, tracer=None) -> Record:
    """Time one op, then check its output; an op that raises is counted."""
    if tracer is not None:
        tracer.begin_op()
    start = time.perf_counter()
    try:
        result, error = op.call(), None
    except Exception as exc:  # counted as failed, never dropped
        result, error = None, exc
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.end_op(wall)
    if error is not None:
        outcome = Outcome(False, [f"raised {type(error).__name__}: {error}"])
    else:
        try:
            outcome = op.check(result)
        except Exception as exc:  # a check that cannot run is a failed check
            outcome = Outcome(False, [f"check raised {type(exc).__name__}: {exc}"])
    if tracer is not None:
        tracer.count("cli_bytes_written", outcome.bytes_written)
    units = max(1, round(wall / CALIBRATION_EVERY_S))
    calibration = sum(calibration_unit() for _ in range(units))
    return Record(op.label, wall, outcome, calibration, units)


def run_rounds(rounds: list[list[Op]], tracer=None) -> list[Record]:
    records = []
    start = time.perf_counter()
    for ops in rounds:
        if time.perf_counter() - start > ROUNDS_CAP_S:
            print(f"stopped after {len(records)} ops: over {ROUNDS_CAP_S} s")
            break
        records.extend(run_op(op, tracer) for op in ops)
    return records


def load_frozen() -> dict[str, float]:
    return json.loads(FROZEN_PATH.read_text())


def lattice_nnz(radius: int) -> int:
    """Stored CSR entries of the Z^2 ball: 4 R^2 edges, each stored twice."""
    return 8 * radius * radius


def h_label(k: int) -> str:
    return "1" if k == 0 else f"1+dist^{k}"


def delta_for(p: float) -> float:
    return min(0.4, 0.5 / (p - 2.0))


def make_spec(graph, x0, p, alpha, k):
    """Problem data with h = 1 + dist^k (h = 1 for k = 0), g = 1, theta = 1."""
    n = graph.n
    dist = yamabe.graph_distance(graph, x0).astype(np.float64)
    h = np.ones(n) if k == 0 else 1.0 + dist**k
    return yamabe.ProblemSpec(p=p, alpha=alpha, delta=delta_for(p), h=h, g=np.ones(n))


def grid_stratum(p: float, alpha: float, k: int) -> str:
    if alpha == p and k == 0:
        return "flat"
    if p <= 4.0 and k > 0:
        return "positivity"
    return "regular"


def grid_instances(size: str):
    """(graph name, p, alpha, h power) of every instance-grid instance."""
    prm = PARAMS["instance-grid"][size]
    for name, p, k in itertools.product(prm["graphs"], prm["ps"], prm["h_powers"]):
        for alpha in ((2.0 + p) / 2.0, p):
            if grid_stratum(p, alpha, k) == "flat" and (name, p) != prm["flat"]:
                continue
            yield name, p, alpha, k


def grid_key(name, p, alpha, k) -> str:
    return f"grid|{name}|p={p!r}|alpha={alpha!r}|h={h_label(k)}"


def lattice_key(radius, alpha, k) -> str:
    return f"lattice|R={radius}|alpha={alpha!r}|h={h_label(k)}"


def nested_key(universe, radius) -> str:
    return f"nested|U={universe}|R={radius}"


def cli_key(config, command, radius=None) -> str:
    key = f"cli|{config}|{command}"
    return key if radius is None else f"{key}|R={radius}"


def _close(value, ref, rtol) -> bool:
    return abs(value - ref) <= rtol * abs(ref)


# -- solve ops -------------------------------------------------------------

def check_solve(graph, spec, opts, res, gamma_ref, oracle: bool) -> Outcome:
    problems = []
    k_val = yamabe.constraint_K(graph, spec, res.u_bar)
    if not abs(k_val - 1.0) <= opts.constraint_tol:
        problems.append(f"K(u_bar) = {k_val!r}, not 1")
    if not _close(res.lam, spec.p * res.gamma / spec.alpha, LAMBDA_RTOL):
        problems.append(f"lambda {res.lam!r} != p gamma / alpha")
    report = yamabe.residual_report(graph, spec, res.u, eigen_factor=res.eigen_factor)
    if not abs(report.residual_sup - res.residual_sup) <= 1e-6 * report.residual_sup + 1e-15:
        problems.append(
            f"reported residual {res.residual_sup!r}, recomputed {report.residual_sup!r}"
        )
    positive = float(np.min(res.u)) > 0.0
    if positive != res.positive:
        problems.append(f"reported positive={res.positive}, min u = {np.min(res.u)!r}")
    certificate = positive and report.residual_sup <= 10.0 * opts.grad_tol
    if res.converged and not certificate:
        problems.append("reports converged but the recomputed certificate fails")
    if not _close(res.gamma, gamma_ref, GAMMA_RTOL):
        problems.append(f"gamma {res.gamma!r}, frozen {gamma_ref!r}")
    dev = None
    if oracle:
        c = (spec.theta * spec.g[0] * graph.volume()) ** (-1.0 / spec.alpha)
        dev = float(np.max(np.abs(res.u_bar - c)) / c)
    return Outcome(
        certified=not problems and res.converged and certificate,
        problems=problems,
        oracle_dev=dev,
    )


def solve_op(label, graph, x0, spec, gamma_ref, oracle=False) -> Op:
    opts = yamabe.SolveOptions(x0=x0)
    return Op(
        label,
        lambda: yamabe.solve(graph, spec, opts),
        lambda res: check_solve(graph, spec, opts, res, gamma_ref, oracle),
    )


def oracle_probe(radius: int) -> Op:
    """Constant-coefficient solve on a Z^2 ball, whose exact minimizer is
    the constant c = (theta g vol)^(-1/alpha) with J(c) = h c^p vol."""
    graph, x0 = yamabe.lattice_ball(2, radius)
    spec = make_spec(graph, x0, 4.0, 3.0, 0)
    vol = graph.volume()
    gamma_exact = vol * (spec.theta * vol) ** (-spec.p / spec.alpha)
    return solve_op("oracle-probe", graph, x0, spec, gamma_exact, oracle=True)


def _shuffler(ops: list[Op], rng):
    def make_round() -> list[Op]:
        return [ops[i] for i in rng.permutation(len(ops))]

    return make_round


def prepare_grid(seed: int, size: str, frozen, workdir) -> Workload:
    rng = np.random.default_rng(seed)
    graphs = {name: GRID_GRAPHS[name]() for name in PARAMS["instance-grid"][size]["graphs"]}
    ops = []
    for name, p, alpha, k in grid_instances(size):
        graph, x0 = graphs[name]
        spec = make_spec(graph, x0, p, alpha, k)
        ops.append(
            solve_op(
                grid_stratum(p, alpha, k),
                graph,
                x0,
                spec,
                frozen[grid_key(name, p, alpha, k)],
                oracle=k == 0,
            )
        )
    warmup = next(op for op in ops if op.label == "regular")
    return Workload(
        ops_per_round=len(ops),
        make_round=_shuffler(ops, rng),
        warmup=warmup,
        oracle_probe=None,
        max_nnz=max(len(g.indices) for g, _ in graphs.values()),
    )


def lattice_radii(size: str) -> list[int]:
    return [
        r for lo, hi in PARAMS["lattice-large"][size]["bands"] for r in range(lo, hi + 1)
    ]


def prepare_lattice(seed: int, size: str, frozen, workdir) -> Workload:
    rng = np.random.default_rng(seed)
    radii = [int(rng.integers(lo, hi + 1)) for lo, hi in PARAMS["lattice-large"][size]["bands"]]
    ops = []
    for radius in radii:
        graph, x0 = yamabe.lattice_ball(2, radius)
        for alpha, k in itertools.product(LATTICE_ALPHAS, LATTICE_H_POWERS):
            spec = make_spec(graph, x0, 4.0, alpha, k)
            ops.append(
                solve_op("lattice", graph, x0, spec, frozen[lattice_key(radius, alpha, k)])
            )
    return Workload(
        ops_per_round=len(ops),
        make_round=_shuffler(ops, rng),
        warmup=ops[0],
        oracle_probe=lambda: oracle_probe(radii[0]),
        max_nnz=lattice_nnz(max(radii)),
    )


# -- exhaustion studies ----------------------------------------------------

def check_study(pfam, study, radii, universe, frozen) -> Outcome:
    problems = []
    rows = study["rows"]
    if [row["R"] for row in rows] != list(radii):
        problems.append(f"rows cover radii {[row['R'] for row in rows]}")
    gammas = [row["gamma"] for row in rows]
    if any(b > a for a, b in zip(gammas, gammas[1:])):
        problems.append(f"gamma increases along nested balls: {gammas}")
    scale = pfam.theta ** (-pfam.p / pfam.alpha)
    for row in rows:
        if not _close(row["lambda"], pfam.p * row["gamma"] / pfam.alpha, LAMBDA_RTOL):
            problems.append(f"R={row['R']}: lambda != p gamma / alpha")
        ref = frozen[nested_key(universe, row["R"])] * scale
        if not _close(row["gamma"], ref, GAMMA_RTOL):
            problems.append(f"R={row['R']}: gamma {row['gamma']!r}, frozen {ref!r}")
    converged = all(row["converged"] for row in rows)
    return Outcome(certified=not problems and converged, problems=problems)


def study_op(theta, size, frozen) -> Op:
    prm = PARAMS["nested-sweep"][size]
    family = yamabe.GraphFamily("lattice_zd_ball", {"d": 2})
    pfam = yamabe.ProblemFamily(
        p=4.0, alpha=3.0, delta=0.4, theta=theta, h="1+dist^2", g=1.0
    )
    return Op(
        "study",
        lambda: yamabe.exhaustion_study(
            family, pfam, prm["radii"], universe_radius=prm["universe"]
        ),
        lambda study: check_study(pfam, study, prm["radii"], prm["universe"], frozen),
    )


def prepare_nested(seed: int, size: str, frozen, workdir) -> Workload:
    rng = np.random.default_rng(seed)
    prm = PARAMS["nested-sweep"][size]

    def make_round() -> list[Op]:
        # the constraint scale theta changes the input but not the work:
        # u scales by theta^(-1/alpha) and gamma by theta^(-p/alpha)
        return [study_op(math.exp(rng.uniform(math.log(0.5), math.log(2.0))), size, frozen)]

    return Workload(
        ops_per_round=1,
        make_round=make_round,
        warmup=study_op(1.0, size, frozen),
        oracle_probe=lambda: oracle_probe(prm["radii"][-1]),
        max_nnz=lattice_nnz(prm["universe"]),
    )


# -- CLI runs --------------------------------------------------------------

@dataclass
class CliRun:
    code: int
    out: str
    stdout: str
    stderr: str


def z2_config(radius: int) -> dict:
    return {
        "graph": {"family": "lattice_zd_ball", "params": {"d": 2, "radius": radius}},
        "problem": {"p": 4, "alpha": 3, "delta": 0.4, "theta": 1, "h": "1+dist^2", "g": 1},
    }


def _read_csv(data: bytes) -> list[list[str]]:
    return list(csv.reader(io.StringIO(data.decode("utf-8"))))


def _check_gamma(problems, notes, frozen, key, gamma):
    ref = frozen.get(key)
    if ref is None:
        # an op that exited non-zero when the file was frozen (the README
        # config's solve, ROADMAP 5); its other checks still apply
        notes.append(f"{key}: no frozen gamma yet, gamma {gamma!r}")
    elif not _close(gamma, ref, GAMMA_RTOL):
        problems.append(f"{key}: gamma {gamma!r}, frozen {ref!r}")


def _check_cli_files(command, config, files, trials, frozen, notes) -> list[str]:
    problems = []
    if command == "solve":
        report = json.loads(files["report.json"])
        rows = _read_csv(files["solution.csv"])
        if rows[0] != ["vertex", "u", "residual"] or len(rows) - 1 != report["n"]:
            problems.append("solution.csv does not match report.json")
        u = np.array([float(r[1]) for r in rows[1:]])
        resid = np.array([float(r[2]) for r in rows[1:]])
        if not (report["converged"] is True and report["positive"] is True):
            problems.append("exit 0 without converged and positive")
        if not np.min(u) > 0.0:
            problems.append(f"solution.csv min u = {np.min(u)!r}")
        if not np.max(np.abs(resid)) <= 10.0 * CLI_GRAD_TOL:
            problems.append(f"solution.csv residual {np.max(np.abs(resid))!r}")
        if not abs(report["k_value"] - 1.0) <= 1e-10:
            problems.append(f"k_value {report['k_value']!r}")
        if not _close(report["lambda"], report["p"] * report["gamma"] / report["alpha"], LAMBDA_RTOL):
            problems.append("lambda != p gamma / alpha")
        _check_gamma(problems, notes, frozen, cli_key(config, command), report["gamma"])
    elif command == "verify":
        report = json.loads(files["verify.json"])
        if report["hypotheses"]["passed"] is not True:
            problems.append("verify.json: hypotheses not passed")
        if report["inequalities"]["passed"] is not True:
            problems.append("verify.json: an inequality is violated")
        if report["inequalities"]["trials"] != trials:
            problems.append("verify.json: wrong trial count")
    else:
        rows = _read_csv(files["sweep.csv"])
        if rows[0] != ["R", "gamma", "lambda", "tail_bound", "converged"]:
            problems.append("sweep.csv header")
        gammas = [float(r[1]) for r in rows[1:]]
        if any(b > a for a, b in zip(gammas, gammas[1:])):
            problems.append(f"sweep.csv gamma increases: {gammas}")
        if any(r[4] != "true" for r in rows[1:]):
            problems.append("exit 0 with an unconverged sweep row")
        for r in rows[1:]:
            _check_gamma(
                problems, notes, frozen, cli_key(config, command, int(r[0])), float(r[1])
            )
    return problems


def check_cli(run: CliRun, command, config, trials, digests, frozen) -> Outcome:
    try:
        if run.code not in (0, 1, 2):
            return Outcome(False, [f"exit code {run.code}"])
        if run.code != 0:
            # a documented failure exit: not certified, but not wrong
            problems = [] if run.stderr.strip() else [f"exit {run.code} without a message"]
            return Outcome(False, problems)
        files = {p.name: p.read_bytes() for p in sorted(Path(run.out).iterdir())}
        written = sum(len(data) for data in files.values())
        notes: list[str] = []
        try:
            problems = _check_cli_files(command, config, files, trials, frozen, notes)
        except (KeyError, IndexError, ValueError) as exc:
            problems = [f"outputs do not parse: {exc!r}"]
        digest = hashlib.sha256(repr(sorted(files.items())).encode()).hexdigest()
        previous = digests.setdefault((config, command), digest)
        if previous != digest:
            problems.append("repeat of the same config is not byte-identical")
        return Outcome(not problems, problems, bytes_written=written, notes=notes)
    finally:
        shutil.rmtree(run.out, ignore_errors=True)


def cli_op(command, config, config_path, extra, seed, workdir, counter, digests, trials, frozen):
    argv = [command, "--config", config_path, "--seed", str(seed)] + extra

    def call() -> CliRun:
        out = os.path.join(workdir, f"out{next(counter)}")
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = yamabe.cli.main(argv + ["--out", out])
        return CliRun(code, out, stdout.getvalue(), stderr.getvalue())

    return Op(
        f"{command}:{config}",
        call,
        lambda run: check_cli(run, command, config, trials, digests, frozen),
    )


def prepare_cli(seed: int, size: str, frozen, workdir) -> Workload:
    rng = np.random.default_rng(seed)
    prm = PARAMS["cli-reports"][size]
    cli_seed = int(rng.integers(0, 2**31 - 1))  # the inequality suite's seed
    configs = {"readme": README_CONFIG, f"z2r{prm['radius']}": z2_config(prm["radius"])}
    counter = itertools.count()
    digests: dict = {}
    commands = {
        "solve": [],
        "verify": ["--trials", str(prm["trials"])],
        "sweep": ["--radii", prm["radii"]],
    }
    ops = []
    for config, body in configs.items():
        path = os.path.join(workdir, f"{config}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(body, fh, indent=2)
        for command, extra in commands.items():
            ops.append(
                cli_op(command, config, path, extra, cli_seed, workdir, counter, digests,
                       prm["trials"], frozen)
            )
    return Workload(
        ops_per_round=len(ops),
        make_round=_shuffler(ops, rng),
        warmup=next(op for op in ops if op.label == f"solve:z2r{prm['radius']}"),
        oracle_probe=lambda: oracle_probe(prm["radius"]),
        max_nnz=lattice_nnz(prm["radius"]),
    )


PREPARE = {
    "instance-grid": prepare_grid,
    "lattice-large": prepare_lattice,
    "nested-sweep": prepare_nested,
    "cli-reports": prepare_cli,
}
WORKLOADS = tuple(PREPARE)
