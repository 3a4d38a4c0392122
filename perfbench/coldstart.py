"""Time one cold set-up of a workload in a fresh interpreter.

    python3 perfbench/coldstart.py WORKLOAD SEED SIZE

Imports yamabe (numpy included), builds the workload's inputs and runs
its warm-up op once, timing each step, and prints them as one JSON line
{"import_s", "inputs_s", "warmup_s"}. run.py starts it several times and
reports the median as setup_s; its own in-process set-up is not timed.
The warm-up's output is checked by run.py's own warm-up of the same op.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv: list[str]) -> int:
    name, seed, size = argv[0], int(argv[1]), argv[2]
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import yamabe  # noqa: F401

    import_s = time.perf_counter() - start
    import workloads as wl

    frozen = wl.load_frozen()
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        start = time.perf_counter()
        workload = wl.PREPARE[name](seed, size, frozen, workdir)
        inputs_s = time.perf_counter() - start
        warmup_s = wl.run_op(workload.warmup).wall
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"import_s": import_s, "inputs_s": inputs_s, "warmup_s": warmup_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
