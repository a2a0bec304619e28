#!/usr/bin/env python3
"""Print a digest of the pivots and counters that ``factor`` returns on a fixed grid.

Run from the repository root, once per tree, and compare the outputs:

    python3 tools/pivot_digest.py --quick > new.jsonl
    python3 tools/pivot_digest.py --quick --src ../parent/src > old.jsonl
    diff old.jsonl new.jsonl

Each line is one JSON object per case: the family, n, seed and
configuration, 16-hex-digit SHA-256 digests of ``perm``, ``pattern``,
``stats.counters``, ``L`` (its values in row-major order, whatever its
layout) and ``D`` (its blocks' entries in order), ``max |L|`` (printed
with ``repr``, so it compares bitwise), the reconstruction residual
``max |A[p][:, p] - L D L^T| / max |A|``, the guard's ``recompute_count``
and ``deficient_from``, digests of ``solve(f, b).x`` and of a 3-column
``solve_many``, ``solve``'s ``singular`` flag, and ``drift``, a digest of
``stats.sketch_drift`` (null unless the run audited its sketch, as only
the ``audit`` configuration does).  The right-hand sides are drawn from
Philox(seed) with a first row of -0.0, which a digest tells from 0.0.
``max |L|`` does not see the order of L's rows; the ``L`` digest and the
residual do.  The grid is type2, type6, type10 and three block-diagonal
families, each block a gallery matrix or zero (see ``BLOCKS``).  Two are
exactly singular, type6 of order n - z bordered by z zero rows and
columns: ``type6-padded`` (z = 3) and ``type6-half`` (z = n // 2, wide
enough for the guard to stop both at a step and at the start of a q = b
panel).  ``type6-type2-mix`` is type6 of order n // 4 + 3, type2 of order
n // 2, then type6: its first long rook walk comes inside a bbk panel of
width 7 or 64.  It runs them at n in {64, 300, 1024}, seeds 0-2, under
the configurations named in ``CONFIGS``; ``--quick`` keeps n <= 300.
``randldl`` is imported from ``--src`` (default: ``src/`` beside this
directory).  Pin the BLAS thread count (``OPENBLAS_NUM_THREADS=1``) on both
sides: a threaded GEMM may round differently.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

# The block-diagonal families: their (gallery family, order) blocks at
# order n, in order down the diagonal; a block of family None is zero.
BLOCKS = {
    "type6-padded": lambda n: [("type6", n - 3), (None, 3)],
    "type6-half": lambda n: [("type6", n - n // 2), (None, n // 2)],
    "type6-type2-mix": lambda n: [
        ("type6", n // 4 + 3), ("type2", n // 2), ("type6", n - n // 4 - 3 - n // 2)
    ],
}
FAMILIES = ("type2", "type6", "type10", *BLOCKS)
SIZES = (64, 300, 1024)
SEEDS = (0, 1, 2)
CONFIGS = {
    "rcp": {},
    "p=b=q=64": {"p": 64, "b": 64, "q": 64},
    "bkpp": {"strategy": "bkpp"},
    "bbk": {"strategy": "bbk"},
    "b=1": {"b": 1},
    "b=7": {"b": 7},
    "bbk b=1": {"strategy": "bbk", "b": 1},
    "bbk b=7": {"strategy": "bbk", "b": 7},
    "audit": {"audit_sketch": True},
}


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="only n <= 300")
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent / "src")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    import numpy as np

    from randldl import MatrixSpec, factor, generate, reconstruct, solve, solve_many

    sizes = [n for n in SIZES if not args.quick or n <= 300]
    for family in FAMILIES:
        for n in sizes:
            for seed in SEEDS:
                if family in BLOCKS:
                    a, i = np.zeros((n, n)), 0
                    for part, m in BLOCKS[family](n):
                        if part is not None:
                            a[i : i + m, i : i + m] = generate(MatrixSpec(part, m, seed))
                        i += m
                else:
                    a = generate(MatrixSpec(family=family, n=n, seed=seed))
                rhs = np.random.Generator(np.random.Philox(seed)).standard_normal((n, 4))
                rhs[0] = -0.0
                for name, overrides in CONFIGS.items():
                    f = factor(a, seed=seed, **overrides)
                    counters = json.dumps(dataclasses.asdict(f.stats.counters), sort_keys=True)
                    residual = np.abs(a[np.ix_(f.perm, f.perm)] - reconstruct(f)).max()
                    report = solve(f, rhs[:, 0])
                    drift = f.stats.sketch_drift
                    if drift is not None:
                        drift = digest(np.array(drift, dtype=np.float64).tobytes())
                    row = {
                        "family": family,
                        "n": n,
                        "seed": seed,
                        "config": name,
                        "perm": digest(np.asarray(f.perm, dtype=np.int64).tobytes()),
                        "pattern": digest(np.asarray(f.pattern, dtype=np.int8).tobytes()),
                        "counters": digest(counters.encode()),
                        "L": digest(np.ascontiguousarray(f.L).tobytes()),
                        "D": digest(np.concatenate([d.ravel() for d in f.D.blocks]).tobytes()),
                        "max_abs_L": repr(float(np.abs(f.L).max())),
                        "residual": float(residual / np.abs(a).max()),
                        "recompute_count": f.stats.recompute_count,
                        "deficient_from": f.deficient_from,
                        "x": digest(report.x.tobytes()),
                        "x_many": digest(np.ascontiguousarray(solve_many(f, rhs[:, 1:])).tobytes()),
                        "singular": report.singular,
                        "drift": drift,
                    }
                    print(json.dumps(row), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
