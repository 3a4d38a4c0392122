"""Write perfbench/frozen_gamma.json: the energy level gamma of every
instance the workloads can draw, at both sizes, as the current code
computes it.

The committed file was written from the commit that introduced the
benchmark; the output checks compare each op's gamma with it. Rewrite it
only when a change is meant to move gamma:

    python3 perfbench/freeze.py
"""

from __future__ import annotations

import csv
import itertools
import json
import os
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import yamabe  # noqa: E402
import yamabe.cli  # noqa: E402

import workloads as wl  # noqa: E402


def solve_gamma(graph, x0, spec) -> float:
    return float(yamabe.solve(graph, spec, yamabe.SolveOptions(x0=x0)).gamma)


def freeze() -> dict[str, float]:
    frozen = {}
    for size in ("full", "tiny"):
        graphs = {name: wl.GRID_GRAPHS[name]() for name in wl.PARAMS["instance-grid"][size]["graphs"]}
        for name, p, alpha, k in wl.grid_instances(size):
            graph, x0 = graphs[name]
            frozen[wl.grid_key(name, p, alpha, k)] = solve_gamma(
                graph, x0, wl.make_spec(graph, x0, p, alpha, k)
            )
        for radius in wl.lattice_radii(size):
            graph, x0 = yamabe.lattice_ball(2, radius)
            for alpha, k in itertools.product(wl.LATTICE_ALPHAS, wl.LATTICE_H_POWERS):
                frozen[wl.lattice_key(radius, alpha, k)] = solve_gamma(
                    graph, x0, wl.make_spec(graph, x0, 4.0, alpha, k)
                )
        study = wl.study_op(1.0, size, frozen).call()
        universe = wl.PARAMS["nested-sweep"][size]["universe"]
        for row in study["rows"]:
            frozen[wl.nested_key(universe, row["R"])] = float(row["gamma"])
        frozen.update(freeze_cli(size))
    return frozen


def freeze_cli(size: str) -> dict[str, float]:
    prm = wl.PARAMS["cli-reports"][size]
    configs = {"readme": wl.README_CONFIG, f"z2r{prm['radius']}": wl.z2_config(prm["radius"])}
    frozen = {}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for config, body in configs.items():
            path = os.path.join(tmp, f"{config}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(body, fh)
            out = os.path.join(tmp, config)
            with redirect_stdout(sys.stderr):
                solved = yamabe.cli.main(["solve", "--config", path, "--out", out])
                swept = yamabe.cli.main(
                    ["sweep", "--config", path, "--out", out, "--radii", prm["radii"]]
                )
            if solved == 0:
                report = json.loads(Path(out, "report.json").read_text())
                frozen[wl.cli_key(config, "solve")] = float(report["gamma"])
            if swept == 0:
                with open(os.path.join(out, "sweep.csv"), encoding="utf-8") as fh:
                    for row in list(csv.reader(fh))[1:]:
                        frozen[wl.cli_key(config, "sweep", int(row[0]))] = float(row[1])
    return frozen


if __name__ == "__main__":
    values = freeze()
    wl.FROZEN_PATH.write_text(json.dumps(values, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(values)} values to {wl.FROZEN_PATH}")
