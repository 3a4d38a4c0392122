"""Every name the benchmark binds still exists in `yamabe`.

`perfbench/tracer.py` rebinds each `(module, attribute)` in its `TARGETS`
table at every import site, and `perfbench/run.py` records
`yamabe.BACKEND`; a renamed or removed name would only surface as a crash
of a later benchmark run. These checks fail at test time instead, and a
traced in-process solve checks that the kernel hooks still count every
kernel call and that every solve-path metric `perfbench/selftest.py`
requires is nonzero (a fast stand-in for its traced runs).
"""

import importlib
import importlib.util
import sys
import time
from pathlib import Path

import numpy as np

import yamabe

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_target_resolves():
    missing = []
    for mod_name, attr, _layer, _group in load_tracer().TARGETS:
        owner = importlib.import_module(mod_name)
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        # the tracer reads methods from the class __dict__, not by lookup
        if name not in getattr(owner, "__dict__", {}):
            missing.append(f"{mod_name}.{attr}")
    assert not missing, f"traced targets missing from yamabe: {missing}"


def test_backend_is_recorded():
    assert isinstance(yamabe.BACKEND, str)


def test_tracer_rebinds_every_import_site():
    # selftest imports `tracer` and `workloads` as top-level modules
    sys.path.insert(0, str(PERFBENCH))
    try:
        selftest = importlib.import_module("selftest")
        selftest.check_rebinding()
    finally:
        sys.path.remove(str(PERFBENCH))


def test_kernel_hooks_see_every_kernel_call():
    # the tracer's kernel hooks read (indptr, indices, weights) from the
    # first three positional arguments of every kernel call
    g, x0 = yamabe.path_graph(20)
    spec = yamabe.ProblemSpec(p=4.0, alpha=3.0, delta=0.4, h=np.ones(g.n), g=np.ones(g.n))
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        tracer.begin_op()
        yamabe.solve(g, spec, yamabe.SolveOptions(x0=x0))
        tracer.end_op(0.0)
    finally:
        tracer.uninstall()
    kernels = ("p_laplacian_kernel", "grad_power_kernel", "edge_energy_kernel")
    calls = {name: tracer.calls[name] for name in kernels}
    assert all(count > 0 for count in calls.values()), calls
    assert tracer.counts["edge_visits"] == g.indices.shape[0] * sum(calls.values())


def test_a_traced_solve_exercises_the_whole_solve_path():
    # selftest requires each metric of its SOLVE_PATH to be nonzero on every
    # workload; they come from the tracer's spans of public functions (the
    # line-search trials, for one, from energy_J calls inside the descent),
    # so a per-op call moved off the public path would zero one of them
    sys.path.insert(0, str(PERFBENCH))
    try:
        solve_path = importlib.import_module("selftest").SOLVE_PATH
    finally:
        sys.path.remove(str(PERFBENCH))
    g, x0 = yamabe.path_graph(20)
    dist = yamabe.graph_distance(g, x0).astype(np.float64)
    spec = yamabe.ProblemSpec(p=4.0, alpha=3.0, delta=0.4, h=1.0 + dist**2, g=np.ones(g.n))
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        tracer.begin_op()
        start = time.perf_counter()
        res = yamabe.solve(g, spec, yamabe.SolveOptions(x0=x0))
        tracer.end_op(time.perf_counter() - start)
    finally:
        tracer.uninstall()
    assert res.converged and res.trace.iters >= 1
    metrics = tracer.metrics()
    idle = [name for name in solve_path if not metrics[name][0] > 0]
    assert not idle, idle
    assert metrics["solver.ls_trials"][0] == res.trace.trials
