"""Benchmark of the yamabe package: time to a certified solution.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src.
Workloads: instance-grid, lattice-large, nested-sweep, cli-reports (see
perfbench/README.md). Each is a single-process closed loop: one client
issues one op at a time.

A run does a fixed amount of work: a fixed number of whole rounds of ops
per workload (ROUNDS), never sized from timings, so the op mix, and with
it every percentile, is the same on every run. --seconds is accepted for
the common calling convention but does not size the run; BENCHMARK.json's
run_seconds states how long the timed rounds take. Op times are reported
in reference-machine seconds: measured times scaled by the run's speed,
taken from a calibration unit run between ops (see
workloads.calibration_unit and REFERENCE_UNIT_S). setup_s is the median
of SETUP_REPEATS cold starts in fresh interpreters (perfbench/coldstart.py),
in measured seconds.

With --trace 0 the last stdout line is a JSON object with the end-to-end
metrics. With --trace 1 the run does half its rounds untraced, installs
the span wrappers of perfbench/tracer.py and repeats the same rounds
traced; the JSON object then holds the per-layer metrics. Lines before it
carry the environment stamp and the not-certified and failed ops.
"""

from __future__ import annotations

import os

# before numpy is imported anywhere in this process or its children
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from collections import Counter  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Rounds of a full-size run, fixed so that every run of a workload does
# the same ops. They give at least workloads.MIN_OPS ops, which puts
# op_tail_s (10 ops above it) at or above the median, except on
# nested-sweep: its ops take about 2 s, and it has 15 of them to keep a
# run under a minute on the reference machine, so its op_tail_s is the
# p33 op time. instance-grid has 5 rounds: then its 11th-largest op falls
# among the 10 samples of its two slowest positivity instances; with 3 or
# 4 rounds it sat at the edge of one of them and jumped between
# instances (spread 0.26 over ten seeds).
ROUNDS = {
    "instance-grid": 5,
    "lattice-large": 2,
    "nested-sweep": 15,
    "cli-reports": 6,
}
# Cold set-ups per run; setup_s is their median. Odd, so the median is
# one of them.
SETUP_REPEATS = 3
# Mean time of workloads.calibration_unit on the reference machine. Times
# are reported as reference-machine seconds: measured seconds times
# REFERENCE_UNIT_S / (the unit's mean time in the same run).
REFERENCE_UNIT_S = 0.0005


def cold_set_up(name: str, seed: int, size: str) -> dict[str, float]:
    """Median cold set-up over SETUP_REPEATS fresh interpreters.

    Each runs perfbench/coldstart.py: import yamabe, build the inputs, run
    the warm-up op once. Returns the step times of the run with the median
    total, and the total as "setup_s".
    """
    runs = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, str(HERE / "coldstart.py"), name, str(seed), size],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=150,
            check=True,
        )
        steps = json.loads(out.stdout.strip().splitlines()[-1])
        runs.append(dict(steps, setup_s=sum(steps.values())))
    return sorted(runs, key=lambda run: run["setup_s"])[len(runs) // 2]


def _read(path: str) -> str:
    try:
        with open(path, encoding="ascii", errors="replace") as fh:
            return fh.read()
    except OSError:
        return ""


def environment(yamabe, max_nnz: int) -> dict:
    cpu = "unknown"
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(Path(base).glob("index*")) if os.path.isdir(base) else []:
        level = _read(str(index / "level")).strip()
        kind = _read(str(index / "type")).strip()
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(str(index / "size")).strip()
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    import numpy

    array_mb = max_nnz * 8 / 1e6
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "yamabe_backend": yamabe.BACKEND,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "cache_per_core_or_shared": caches,
        "blas_omp_threads": os.environ["OMP_NUM_THREADS"],
        "largest_nnz_array_mb": round(array_mb, 3),
        "note": (
            f"the largest kernel array ({array_mb:.2f} MB per nnz array) fits in "
            f"L3 ({caches.get('L3', 'size unknown')}), so kernel figures are "
            "computed operation and byte counts; no bandwidth or roofline figure"
        ),
    }


def speed_scale(records) -> float:
    """Reference-machine seconds per measured second during these ops."""
    unit = sum(r.calibration_s for r in records) / sum(r.calibration_units for r in records)
    return REFERENCE_UNIT_S / unit


def end_to_end(records, setup_s, oracle_devs, scale) -> dict:
    walls = [r.wall * scale for r in records]
    n = len(walls)
    metrics = {
        "ops_per_s": (n / sum(walls), "1/s"),
        "op_p50_s": (statistics.median(walls), "s"),
    }
    if n >= 11:
        # highest percentile that still has 10 samples above it
        metrics["op_tail_s"] = (sorted(walls)[n - 11], "s")
        print(f"op_tail_s is the p{100.0 * (n - 10) / n:.2f} op time of {n} ops, 10 above it")
    metrics["certified_frac"] = (sum(r.outcome.certified for r in records) / n, "frac")
    metrics["oracle_digits"] = (-math.log10(max(max(oracle_devs), 1e-17)), "digits")
    metrics["setup_s"] = (setup_s, "s")  # measured: no calibration ran in set-up
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return metrics


def report_outcomes(records) -> None:
    uncertified = Counter(r.label for r in records if not r.outcome.certified)
    total = Counter(r.label for r in records)
    print(
        "not certified by label: "
        + json.dumps({k: f"{uncertified[k]}/{total[k]}" for k in sorted(total)})
    )
    failed = [r for r in records if r.outcome.problems]
    for r in failed[:10]:
        print(f"FAILED {r.label}: {'; '.join(r.outcome.problems)}")
    notes = Counter(note for r in records for note in r.outcome.notes)
    for note, times in sorted(notes.items()):
        print(f"NOTE ({times} ops): {note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        choices=("full", "tiny"),
        default="full",
        help="tiny runs minimal inputs; only perfbench/selftest.py uses it",
    )
    args = parser.parse_args(argv)

    if not (SRC / "yamabe" / "__init__.py").is_file():
        print(f"no yamabe package under {SRC}; run from a checkout root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import yamabe

    import tracer as tracer_mod
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {wl.WORKLOADS}", file=sys.stderr)
        return 2

    # set-up is timed in fresh interpreters; the traced run reports no setup_s
    cold = None if args.trace else cold_set_up(args.workload, args.seed, args.size)
    frozen = wl.load_frozen()
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        workload = wl.PREPARE[args.workload](args.seed, args.size, frozen, workdir)
        warm = wl.run_op(workload.warmup)

        per_round = workload.ops_per_round
        if args.size == "full":
            n_rounds = ROUNDS[args.workload]
        else:
            n_rounds = math.ceil(wl.MIN_OPS / per_round)
        if args.trace:
            n_rounds = math.ceil(n_rounds / 2)
        rounds = [workload.make_round() for _ in range(n_rounds)]

        records = wl.run_rounds(rounds)
        if args.trace:
            tracer = tracer_mod.Tracer()
            tracer.install()
            try:
                traced = wl.run_rounds(rounds, tracer)
            finally:
                tracer.uninstall()
        probe = None
        if workload.oracle_probe is not None:
            probe = wl.run_op(workload.oracle_probe())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("env " + json.dumps(environment(yamabe, workload.max_nnz)))
    print(f"workload {args.workload} seed {args.seed}: {n_rounds} rounds of {per_round} ops")
    if cold is not None:
        print(
            f"setup {cold['setup_s']:.6g} s, the median of {SETUP_REPEATS} cold starts "
            f"(import {cold['import_s']:.4g} s, inputs {cold['inputs_s']:.4g} s, "
            f"warm-up {cold['warmup_s']:.4g} s)"
        )
    all_records = records + (traced if args.trace else [])
    report_outcomes(all_records)
    extra = [warm] + ([probe] if probe else [])
    for r in extra:
        if r.outcome.problems:
            print(f"FAILED {r.label}: {'; '.join(r.outcome.problems)}")

    scale = speed_scale(records)
    print(
        f"speed: calibration unit {REFERENCE_UNIT_S / scale * 1e3:.4f} ms against "
        f"{REFERENCE_UNIT_S * 1e3:.4f} ms on the reference machine; op times below are "
        f"measured times x {scale:.4f}; measured op time {sum(r.wall for r in records):.4g} s, "
        f"ops/s {len(records) / sum(r.wall for r in records):.6g}, "
        f"median op {statistics.median(r.wall for r in records):.6g} s"
    )
    if args.trace:
        untraced_rate = len(records) / sum(r.wall for r in records) / scale
        traced_rate = len(traced) / sum(r.wall for r in traced) / speed_scale(traced)
        metrics = tracer.metrics()
        metrics["trace.overhead_frac"] = (1.0 - traced_rate / untraced_rate, "frac")
    else:
        devs = [r.outcome.oracle_dev for r in records + extra if r.outcome.oracle_dev is not None]
        metrics = end_to_end(records, cold["setup_s"], devs, scale)

    failed = sum(bool(r.outcome.problems) for r in all_records)
    result = {
        "correct": failed == 0 and not any(r.outcome.problems for r in extra),
        "attempted": len(all_records),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
