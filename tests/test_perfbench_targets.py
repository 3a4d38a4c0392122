"""Every function the traced benchmark wraps still exists in `yamabe`.

`perfbench/tracer.py` rebinds each `(module, attribute)` in its `TARGETS`
table; a renamed or removed function would only surface as a crash of a
later `--trace 1` run. This check fails at test time instead.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
