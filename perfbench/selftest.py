"""Tiny-size self-test of the benchmark harness.

    python3 perfbench/selftest.py

Checks, and exits non-zero on the first failure:

* installing and removing the tracer rebinds every import site of a
  wrapped function (both `yamabe.functionals.energy_J` and
  `yamabe.solver.energy_J`, both `yamabe._kernels.grad_power_kernel` and
  `yamabe.solver.grad_power_kernel`) and then restores every binding;
* every workload, run at `--size tiny` untraced and traced, ends its
  output with a correct result object that names exactly the
  `end_to_end` (untraced) or `per_layer` (traced) metrics of
  BENCHMARK.json, each with its unit;
* in each traced run the layer self times plus `trace.unattributed_s`
  add up to the op wall time `trace.op_wall_s` (an identity of the
  tracer's bookkeeping), and `trace.unattributed_s` is under 1% of it, so
  no import site or hot path the ops reach is left unwrapped;
* in each traced run the layers and counters the workload must exercise
  (EXERCISED) are nonzero;
* in a directory holding only BENCHMARK.json and the benchmark, the
  benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import yamabe  # noqa: E402

import tracer as tracer_mod  # noqa: E402
import workloads as wl  # noqa: E402


# Unattributed time allowed, as a share of op wall time.
UNATTRIBUTED_MAX = 0.01
# Per-layer metrics that must be nonzero in a workload's traced run: every
# op solves, so the solve path's layers and counters; plus what only the
# workload reaches.
SOLVE_PATH = (
    "solver.solves", "solver.iters", "solver.ls_trials",
    "functionals.energy_calls", "functionals.gradient_calls", "functionals.constraint_calls",
    "operators.calls", "kernels.p_laplacian_calls", "kernels.grad_power_calls",
    "kernels.edge_energy_calls", "kernels.edge_visits", "kernels.bytes_computed",
    "graph.distance_calls", "verify.certify_s", "verify.hypotheses_s",
    "graph.self_s", "functionals.self_s", "operators.self_s", "kernels.self_s",
    "solver.self_s", "verify.self_s",
)
EXERCISED = {
    "instance-grid": SOLVE_PATH,
    "lattice-large": SOLVE_PATH,
    "nested-sweep": SOLVE_PATH + (
        "graph.build_s", "graph.vertices_built", "graph.truncate_calls",
        "families.materialize_s", "families.fields_s", "families.self_s",
        "verify.exhaustion_self_s",
    ),
    "cli-reports": SOLVE_PATH + (
        "graph.build_s", "graph.truncate_calls", "families.materialize_s",
        "verify.inequality_s", "verify.inequality_trials", "verify.exhaustion_self_s",
        "cli.self_s", "cli.bytes_written",
    ),
}


def fail(message: str) -> None:
    print(f"selftest FAILED: {message}")
    sys.exit(1)


def bindings() -> dict:
    return {
        (name, key): value
        for name, mod in sorted(sys.modules.items())
        if name == "yamabe" or name.startswith("yamabe.")
        for key, value in vars(mod).items()
        if callable(value)
    }


def check_rebinding() -> None:
    before = bindings()
    methods = (yamabe.WeightedGraph.__dict__["from_edges"], yamabe.GraphFamily.materialize)
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        for mod, attr in (
            ("yamabe.functionals", "energy_J"),
            ("yamabe.solver", "energy_J"),
            ("yamabe.verify", "energy_J"),
            ("yamabe._kernels", "grad_power_kernel"),
            ("yamabe.solver", "grad_power_kernel"),
            ("yamabe", "solve"),
            ("yamabe.verify", "solve"),
        ):
            if not hasattr(getattr(sys.modules[mod], attr), "__wrapped__"):
                fail(f"{mod}.{attr} is not wrapped while tracing")
    finally:
        tracer.uninstall()
    after = bindings()
    changed = [key for key in before if after[key] is not before[key]]
    if changed:
        fail(f"uninstall left wrapped bindings: {changed}")
    if (yamabe.WeightedGraph.__dict__["from_edges"], yamabe.GraphFamily.materialize) != methods:
        fail("uninstall left wrapped methods")


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def check_workload(workload: str, spec: dict) -> None:
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        out = run(workload, trace)
        if out.returncode != 0:
            fail(f"{workload} trace={trace} exited {out.returncode}: {out.stderr[-2000:]}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
            fail(f"{workload} trace={trace}: result keys {sorted(result)}")
        if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
            fail(f"{workload} trace={trace}: {out.stdout[-3000:]}")
        want = {m["name"]: m["unit"] for m in spec[section]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != want:
            missing = sorted(set(want) - set(got))
            extra = sorted(set(got) - set(want))
            wrong = sorted(k for k in set(want) & set(got) if want[k] != got[k])
            fail(f"{workload} trace={trace}: missing {missing}, extra {extra}, units {wrong}")
        if trace:
            values = {name: m["value"] for name, m in result["metrics"].items()}
            total = sum(values[f"{layer}.self_s"] for layer in tracer_mod.LAYERS)
            total += values["trace.unattributed_s"]
            wall = values["trace.op_wall_s"]
            if abs(total - wall) > 1e-6 * wall:
                fail(f"{workload}: self times add to {total!r}, op wall is {wall!r}")
            if not values["trace.unattributed_s"] < UNATTRIBUTED_MAX * wall:
                fail(f"{workload}: unattributed {values['trace.unattributed_s']!r} of {wall!r}")
            idle = [name for name in EXERCISED[workload] if not values[name] > 0]
            if idle:
                fail(f"{workload}: zero in the traced run: {idle}")
        print(f"selftest ok: {workload} trace={trace}")


def check_bare_directory() -> None:
    with tempfile.TemporaryDirectory(prefix=".perfbench-selftest-", dir=ROOT) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        out = run(wl.WORKLOADS[0], 0, cwd=bare)
        if out.returncode == 0 or out.stdout.strip():
            fail(f"bare directory run exited {out.returncode} with output {out.stdout!r}")
    print("selftest ok: bare directory exits non-zero")


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_rebinding()
    print("selftest ok: tracer rebinding")
    for workload in wl.WORKLOADS:
        check_workload(workload, spec)
    check_bare_directory()
    print("selftest passed")


if __name__ == "__main__":
    main()
