"""Every name the benchmark binds still exists in `yamabe`.

`perfbench/tracer.py` rebinds each `(module, attribute)` in its `TARGETS`
table at every import site, and `perfbench/run.py` records
`yamabe.BACKEND`; a renamed or removed name would only surface as a crash
of a later benchmark run. These checks fail at test time instead.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import yamabe

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


def test_every_traced_target_resolves():
    missing = []
    for mod_name, attr, _layer, _group in load_targets():
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
