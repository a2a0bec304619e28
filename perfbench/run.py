#!/usr/bin/env python3
"""randldl benchmark: time-to-solution against LAPACK on four workloads.

Run from the repository root:

    python3 perfbench/run.py --workload dense-rcp --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0`` and the per-layer metrics with ``--trace 1``.  The
line before it records the environment, sample counts and the pivot digest.
``randldl`` is imported from ``src/`` beside this directory and nowhere else;
without it the run exits with code 2 and prints no result.  See README.md in
this directory for the metrics, the workloads and the layer table.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SPEC_PATH = HERE.parent / "BENCHMARK.json"
# The first set-up sample counts this process's import; each later one, taken
# during the run, counts the same import timed in a fresh child interpreter.
IMPORT_CODE = (
    "import sys, time; sys.path[:0] = sys.argv[1:]; t0 = time.perf_counter(); "
    "import measure; print(time.perf_counter() - t0)"
)


def child_import_s() -> float:
    """Seconds a fresh interpreter takes to import what this run imports."""
    out = subprocess.run(
        [sys.executable, "-B", "-c", IMPORT_CODE, str(SRC), str(HERE)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(out.stdout.splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    workloads = [w["name"] for w in json.loads(SPEC_PATH.read_text())["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # One BLAS thread, set before numpy loads OpenBLAS.  numpy and scipy each
    # load their own OpenBLAS; two worker pools and the main thread on two
    # cores make small BLAS calls time erratically (the n = 640 solve_many
    # ratio spread 0.36 over five seeds with two threads, 0.01 with one).
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[var] = "1"
    # Write no __pycache__ into the checkout; every run compiles the same sources.
    sys.dont_write_bytecode = True

    if not (SRC / "randldl" / "__init__.py").is_file():
        print(f"perfbench: no randldl package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import measure  # numpy, scipy.linalg and randldl

    import_s = perf_counter() - t0
    if Path(measure.randldl.__file__).resolve().parent.parent != SRC:
        print(f"perfbench: randldl came from {measure.randldl.__file__}, not {SRC}", file=sys.stderr)
        return 2

    info, result = measure.run(args.workload, args.seed, args.seconds, bool(args.trace), import_s, child_import_s, nproc)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
