"""Compare this checkout's outputs with those of another checkout.

    python tools/against_base.py BASE_DIR

BASE_DIR is a checkout of the commit to compare with (CI passes a worktree
of a pull request's base commit). In this checkout and in BASE_DIR, each
importing its own ``src``, the script

* solves the sets of ``tests/instances.py`` that ``SOLVE_SETS`` names, from
  this checkout on both sides, so that each side solves the same instances
  with its own package: acceptance 12's grid, six lattice-large solves on
  the Z^2 ball of radius 60, the proportional and near-proportional sets
  and the manufactured solutions of acceptance 13 and 15 (180, 6, 96 and
  72 solves). It hashes, with one SHA-256 per set and branch (alpha < p,
  p = alpha), u_bar, u, the residual, gamma, lambda, the iterations and the
  line-search trials, so that a change that moves one iterate shows, and
  keeps each solve's gamma, lambda, iterations, trials, convergence,
  positivity certificate and rel (``residual_rel_sup``), and per branch
  the tally and, for the manufactured set, the worst errors;
* hashes, with one SHA-256 per graph, the arrays of the graph layer
  (``GRAPH_SIZES``): ``indptr``, ``indices``, ``weights``, ``mu``, the
  pairing, the anchor and its distances, and the kept orbits (each vertex's
  cell, each cell's first vertex and the quotient's arrays) of every
  generator and quotient builder at a few sizes, of an explicit graph with a
  self-loop, and of ``truncate_ball`` balls cut from them at radius 0, half
  the eccentricity and the eccentricity, around the anchor and around
  another vertex;
* runs the ``yamabe`` CLI 22 times (``RUNS``) on the README's config (a
  d = 1 lattice), a Z^2 ball of radius 40 (also with theta = 2.5, the
  only runs where theta g is not g), a binary tree of depth 8, a
  binary tree and a Z^3 ball sized by the sweep's radius, an explicit graph
  (built by ``from_edges``) with a self-loop, unequal weights and a
  per-vertex mu, from its anchor and from vertex 3 (the only runs that ask
  for distances from a vertex other than a graph's anchor), and p = alpha
  on a cycle of 20 (h = 1), on a path of 30
  (h = 1 + dist^2; only solve, as its sweep exits 1 on the free-boundary
  rise of gamma on small balls) and on a binary tree sized by the sweep's
  radius (h = 1 + dist^2; radii 8, 12 and 16, as gamma rises at radius 6:
  the only run whose p = alpha K-tail bound divides by the sizes of real
  orbit cells, up to 2^32), keeping each run's files, its stdout and its
  exit code. Its ``verify`` runs on the README's config, the Z^2 ball
  and the tree cross the inequality suite's block boundaries (4, 250 and
  32 blocks of trials); a second one on the Z^2 ball, of 1,151 trials,
  ends on a partial block of 3 trials, which the energy pass splits into
  edge sub-blocks of 2 and 1.

It prints a Markdown summary on stdout: whether the two digests are
identical (for a set of solves that differs, what ``digest_drift`` lists),
for each set, branch and side what ``branch_accuracy`` lists, whether the
graph arrays are identical (else which graphs differ), whether the CLI
outputs are byte-identical (else which files differ) and, for each CSV
file and report.json that differs, what ``drift`` lists (rounding drift is
about 1e-16, but a residual, a near-cancellation of O(1) terms, moves far
more relative to itself). The verdicts are reported, not gated: the
script exits 0 whatever it finds, since a performance change may move
rounding on purpose.
"""

from __future__ import annotations

import csv
import importlib.util
import itertools
import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

HEAD = Path(__file__).resolve().parent.parent

PROBLEM = {"p": 4, "alpha": 3, "delta": 0.4, "theta": 1, "h": "1 + dist^4", "g": 1}
Z2_R40 = {"family": "lattice_zd_ball", "params": {"d": 2, "radius": 40}}
EXPLICIT_LOOP = {
    "n": 6,
    "edges": [[0, 1, 1.0], [1, 2, 2.5], [2, 2, 0.5], [2, 3, 1.0],
              [3, 4, 0.75], [4, 5, 3.0], [0, 5, 1.5]],
    "mu": [1.0, 2.0, 0.5, 1.5, 1.0, 2.5],
}
GRAPHS = {
    "z2_r40": Z2_R40,
    "tree_b2_d8": {"family": "tree_ball", "params": {"branching": 2, "depth": 8}},
    "tree_b2": {"family": "tree_ball", "params": {"branching": 2}},
    "z3": {"family": "lattice_zd_ball", "params": {"d": 3}},
    "explicit_loop": {"explicit": EXPLICIT_LOOP},
    # x0 is not the graph's anchor (vertex 0), so every distance is a search from 3
    "explicit_loop_x3": {"explicit": EXPLICIT_LOOP, "x0": 3},
}
# configs with their own problem: theta = 2.5, so that K and the multiplier
# depend on theta, and p = alpha, where the descent's curvature runs
# grad_power at exponent p - 2 and k_tail_bound takes each vertex's measure
OWN_PROBLEM = {
    "z2_r40_theta": (Z2_R40, PROBLEM | {"theta": 2.5}),
    "cycle_flat": ({"family": "cycle", "params": {"n": 20}},
                   {"p": 4, "alpha": 4, "delta": 0.4, "theta": 1, "h": 1, "g": 1}),
    "path_flat": ({"family": "path", "params": {"n": 30}},
                  {"p": 3, "alpha": 3, "delta": 0.4, "theta": 1, "h": "1 + dist^2", "g": 1}),
    "tree_flat": ({"family": "tree_ball", "params": {"branching": 2}},
                  {"p": 4, "alpha": 4, "delta": 0.4, "theta": 1, "h": "1 + dist^2", "g": 1}),
}
# (config, command and its options), one CLI run each
RUNS = (
    ("readme", "solve"),
    ("readme", "sweep --radii 4,8,16,32"),
    ("readme", "verify --trials 1000"),
    ("z2_r40", "solve"),
    ("z2_r40", "sweep --radii 4,8,16,32"),
    ("z2_r40", "verify --trials 1000"),
    ("z2_r40", "verify --trials 1151"),
    ("z2_r40_theta", "solve"),
    ("z2_r40_theta", "sweep --radii 4,8,16,32"),
    ("tree_b2_d8", "solve"),
    ("tree_b2_d8", "sweep --radii 4,6,8"),
    ("tree_b2_d8", "verify --trials 1000"),
    ("tree_b2", "sweep --radii 4,6,8"),
    ("z3", "sweep --radii 4,8,12"),
    ("explicit_loop", "solve"),
    ("explicit_loop", "verify --trials 1000"),
    ("explicit_loop_x3", "solve"),
    ("explicit_loop_x3", "verify --trials 1000"),
    ("cycle_flat", "solve"),
    ("cycle_flat", "sweep --radii 4,8,16"),
    ("path_flat", "solve"),
    ("tree_flat", "sweep --radii 8,12,16"),
)
CLI = 'import sys; sys.path.insert(0, "src"); from yamabe.cli import main; sys.exit(main(sys.argv[1:]))'


BRANCHES = ("alpha < p", "p = alpha")
SOLVE_SETS = ("grid", "z2_r60", "proportional", "manufactured")
# (builder, its size arguments): one graph each, and balls cut from it
GRAPH_SIZES = (
    ("path_graph", (1,)), ("path_graph", (30,)), ("cycle_graph", (3,)), ("cycle_graph", (20,)),
    ("cycle_graph", (21,)), ("lattice_ball", (1, 0)), ("lattice_ball", (1, 40)),
    ("lattice_ball", (2, 10)), ("lattice_ball", (2, 60)), ("lattice_ball", (3, 8)),
    ("lattice_ball", (4, 3)), ("tree_ball", (2, 0)), ("tree_ball", (2, 8)), ("tree_ball", (3, 5)),
    ("lattice_quotient", (1, 40)), ("lattice_quotient", (2, 128)), ("lattice_quotient", (3, 8)),
    ("lattice_quotient", (4, 6)), ("tree_quotient", (2, 0)), ("tree_quotient", (2, 64)),
    ("tree_quotient", (3, 5)),
)


def digest_sets():
    """``tests/instances.py`` of this script's checkout, its ``yamabe`` the
    first on sys.path (in a digest, the compared checkout's ``src``), and
    the digest's solve sets from it, by name in SOLVE_SETS order."""
    spec = importlib.util.spec_from_file_location("instances", HEAD / "tests" / "instances.py")
    instances = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(instances)
    return instances, {"grid": instances.grid(), "z2_r60": instances.z2_r60(),
                       "proportional": instances.proportional(0.0, 1e-3, 1e-1),
                       "manufactured": itertools.chain(instances.alpha_below_p(),
                                                       instances.p_equals_alpha())}


def digest() -> None:
    """Print the digests of the checkout in the working directory."""
    import hashlib

    sys.path.insert(0, str(Path.cwd() / "src"))
    import numpy as np

    instances, sets = digest_sets()
    out = {"graph": graph_digest(), "summary": {}}
    for name, chosen in sets.items():
        results = list(instances.run(chosen))
        sha = {branch: hashlib.sha256() for branch in BRANCHES}
        solves = {key: [] for key in ("branch", "gamma", "lambda", "iters", "trials",
                                      "converged", "positive", "rel")}
        for instance, res in results:
            branch = BRANCHES[instance.spec.alpha == instance.spec.p]
            for arr in (res.u_bar, res.u, res.residual,
                        np.array([res.gamma, res.lam, res.trace.iters, res.trace.trials])):
                sha[branch].update(arr.tobytes())
            trace = res.trace
            for key, value in zip(solves, (branch, res.gamma, res.lam, trace.iters, trace.trials,
                                           res.converged, res.positive, res.residual_rel_sup)):
                solves[key].append(value)
        out[name] = {"sha256": {branch: sha[branch].hexdigest() for branch in BRANCHES}, **solves}
        out["summary"][name] = {}
        for branch in BRANCHES:
            picked = [r for b, r in zip(solves["branch"], results) if b == branch]
            if picked:
                line = out["summary"][name][branch] = instances.tally(picked)._asdict()
                if name == "manufactured":
                    worst, line["ref_error"] = instances.accuracy(picked)
                    line["u_error"] = max(worst.values())
    print(json.dumps(out))


def graph_digest() -> dict[str, str]:
    """One SHA-256 per graph of GRAPH_SIZES, of the explicit graph, and of
    each ball cut from them, over every array the graph layer keeps."""
    import hashlib

    import numpy as np
    import yamabe.graph as graph

    def arrays(g, anchor):
        kept, dist = g._distance
        yield from (g.indptr, g.indices, g.weights, g.mu, *g.pairing, np.array([anchor, kept]), dist)
        orbits = graph._orbit_quotient(g, anchor)
        if orbits is not None:
            cell, first, quotient = orbits
            yield from (cell, first, quotient.indptr, quotient.indices, quotient.weights, quotient.mu)

    def sha(g, anchor):
        h = hashlib.sha256()
        for a in arrays(g, anchor):
            h.update(f"{a.dtype} {a.shape}".encode())
            h.update(np.ascontiguousarray(a).tobytes())
        return h.hexdigest()

    built = {f"{name}{size}": getattr(graph, name)(*size)[:2] for name, size in GRAPH_SIZES}
    built["explicit_loop"] = (graph.graph_from_dict(EXPLICIT_LOOP), 0)
    out = {}
    for name, (g, anchor) in built.items():
        out[name] = sha(g, anchor)
        for x0 in sorted({anchor, g.n // 3}):
            ecc = graph.eccentricity(g, x0)
            for radius in sorted({0, ecc // 2, ecc}):
                ball, ball_anchor, new_to_old = graph.truncate_ball(g, x0, radius)
                h = hashlib.sha256(sha(ball, ball_anchor).encode())
                h.update(np.array([ball_anchor]).tobytes() + new_to_old.tobytes())
                out[f"{name} ball x0={x0} R={radius}"] = h.hexdigest()
    return out


def digest_drift(digests: dict[str, dict]) -> list[str]:
    """For each digest set that differs: the branches whose solves differ,
    the largest relative change in gamma and lambda from base to head, and
    each side's trial total and its count of converged solves."""
    lines = []
    base, head = digests["base"], digests["head"]
    for name in SOLVE_SETS:
        if head[name] == base[name]:
            continue
        moved = [branch for branch in BRANCHES
                 if head[name]["sha256"][branch] != base[name]["sha256"][branch]]
        worst = {key: max(abs(h - b) / abs(b) for b, h in zip(base[name][key], head[name][key]))
                 for key in ("gamma", "lambda")}
        lines.append(f"- {name}: {' and '.join(moved) or 'no branch'} differs; largest relative "
                     f"change gamma {worst['gamma']:.2e}, lambda {worst['lambda']:.2e}")
        for side, sets in digests.items():
            solves = sets[name]
            lines.append(f"- {name} {side}: {sum(solves['trials'])} trials, "
                         f"{sum(solves['converged'])} of {len(solves['converged'])} converged")
    return lines


def branch_accuracy(digests: dict[str, dict]) -> list[str]:
    """For each digest set, branch and side, from the digest's summary: how
    many solves have rel, the relative defect of the vertex equation, above
    1e-10, 1e-6, 1e-2 and 0.5, how many are certified (converged) and
    positive, and the iteration total; for the manufactured set also the
    worst |u/u_ref - 1| and |gamma/gamma_ref - 1| (p = alpha: the bulk
    error and |eigen_factor/Lambda - 1|, as acceptance 15 takes them)."""
    lines = []
    for name in SOLVE_SETS:
        for branch in BRANCHES:
            for side, sets in digests.items():
                tally = sets["summary"][name].get(branch)
                if tally is None:
                    continue
                rel = "/".join(str(count) for count in tally["rel"])
                line = (f"- {name}, {branch}, {side}: rel > 1e-10/1e-6/1e-2/0.5 in {rel}, "
                        f"{tally['certified']} of {tally['count']} certified positive, "
                        f"{tally['iters']} iterations")
                if "u_error" in tally:
                    u, ref = (("", "gamma/gamma_ref") if branch == BRANCHES[0]
                              else ("bulk ", "eigen_factor/Lambda"))
                    line += (f", worst {u}|u/u_ref - 1| {tally['u_error']:.2g}, "
                             f"worst |{ref} - 1| {tally['ref_error']:.2g}")
                lines.append(line)
    return lines


def read_digest(out: str) -> dict | None:
    """The digest's sets, or None when it did not run to its end."""
    try:
        sets = json.loads(out)
    except ValueError:
        return None
    return sets if isinstance(sets, dict) and sets.keys() == {*SOLVE_SETS, "graph", "summary"} else None


def write_configs(work: Path) -> None:
    block = re.search(r"```json\n(.*?)```", (HEAD / "README.md").read_text(), re.DOTALL).group(1)
    (work / "readme.json").write_text(block)
    configs = {name: (graph, PROBLEM) for name, graph in GRAPHS.items()} | OWN_PROBLEM
    for name, (graph, problem) in configs.items():
        config = {"graph": graph, "problem": problem, "solver": {"grad_tol": 1e-8, "seed": 0}}
        (work / f"{name}.json").write_text(json.dumps(config))


def run_tree(tree: Path, work: Path, side: str) -> str:
    """Run the digest and the CLI runs in ``tree``, the outputs under
    work/outputs-<side>; returns the digest's output."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--digest"], cwd=tree,
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    ).stdout
    for cfg, args in RUNS:
        folder = work / f"outputs-{side}" / cfg
        folder.mkdir(parents=True, exist_ok=True)
        # one name per run, e.g. verify_trials_1000, as a config runs a command more than once
        run = "_".join(token.lstrip("-") for token in args.split())
        with open(folder / f"{run}.stdout", "w") as fh:
            rc = subprocess.run(
                [sys.executable, "-c", CLI, *args.split(),
                 "--config", str(work / f"{cfg}.json"), "--out", str(folder / run)],
                cwd=tree, stdin=subprocess.DEVNULL, stdout=fh,
            ).returncode
        with open(folder / f"{run}.stdout", "a") as fh:
            fh.write(f"exit {rc}\n")
    return out


def files(root: Path) -> dict[str, bytes]:
    return {str(path.relative_to(root)): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


def columns(name: str, data: bytes) -> dict[str, list[str]] | None:
    """A CSV file's columns, or a JSON file's top-level scalars as columns of
    one entry; None for other files."""
    text = data.decode()
    if name.endswith(".csv"):
        header, *rows = csv.reader(text.splitlines())
        return {col: [row[i] for row in rows] for i, col in enumerate(header)}
    if name.endswith(".json"):
        return {key: [str(value)] for key, value in json.loads(text).items()
                if not isinstance(value, (dict, list))}
    return None


def drift(base: dict[str, bytes], head: dict[str, bytes]) -> list[str]:
    """For each CSV or JSON file that differs, the columns that differ: a
    numeric one with its largest relative difference, any other by name."""
    lines = []
    for name in sorted(head):
        if name not in base or base[name] == head[name]:
            continue
        old, new = columns(name, base[name]), columns(name, head[name])
        if old is None:
            continue
        if old.keys() != new.keys() or any(len(old[key]) != len(new[key]) for key in old):
            lines.append(f"- {name}: columns or rows differ")
            continue
        parts = []
        for key in (key for key in old if old[key] != new[key]):
            try:
                worst = max(abs(float(h) - float(b)) / max(abs(float(b)), 1e-300)
                            for b, h in zip(old[key], new[key]))
                parts.append(f"{key} {worst:.2e}")
            except ValueError:
                parts.append(f"{key} (not numeric)")
        lines.append(f"- {name}: largest relative difference in " + ", ".join(parts))
    return lines


def main(argv: list[str]) -> int:
    if argv == ["--digest"]:
        digest()
        return 0
    if len(argv) != 1 or not Path(argv[0]).is_dir():
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    base_dir = Path(argv[0]).resolve()
    rev = subprocess.run(["git", "-C", str(base_dir), "rev-parse", "HEAD"],
                         capture_output=True, text=True).stdout.strip() or str(base_dir)
    with tempfile.TemporaryDirectory(prefix="against-base-") as tmp:
        work = Path(tmp)
        write_configs(work)
        trees = (("head", HEAD), ("base", base_dir))
        digests = {side: run_tree(tree, work, side) for side, tree in trees}
        outputs = {side: files(work / f"outputs-{side}") for side in ("head", "base")}

    solves = f"u_bar, u, residual, gamma, lambda, iterations and trials of {', '.join(SOLVE_SETS)}"
    sets = {side: read_digest(out) for side, out in digests.items()}
    if None in sets.values():
        print(f"{solves} vs base {rev}: did not run")
        for side in (side for side in ("head", "base") if sets[side] is None):
            print("\n".join(f"- {side}: {line}" for line in digests[side].splitlines()))
    else:
        same = all(sets["head"][name] == sets["base"][name] for name in SOLVE_SETS)
        print(f"{solves} vs base {rev}: {'identical' if same else 'differs'}")
        print("\n".join(digest_drift(sets) + branch_accuracy(sets)))
        head, base = sets["head"]["graph"], sets["base"]["graph"]
        differ = [name for name in head if head[name] != base.get(name)]
        print(f"graph arrays of {len(head)} generators, quotients and balls vs base {rev}: "
              + ("identical" if not differ and head.keys() == base.keys() else "these differ"))
        for name in differ:
            print(f"- {name}")
    configs = ", ".join(dict.fromkeys(cfg for cfg, _ in RUNS))
    what = f"yamabe CLI, {len(RUNS)} runs on the {configs} configs"
    base, head = outputs["base"], outputs["head"]
    differ = sorted(name for name in set(base) | set(head) if base.get(name) != head.get(name))
    if not differ:
        print(f"{what} vs base {rev}: byte-identical")
    else:
        print(f"{what} vs base {rev}: these files differ")
        for name in differ:
            only = "" if name in base and name in head else "head" if name in head else "base"
            print(f"- {name}" + (f" (only in {only})" if only else ""))
        for line in drift(base, head):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
