"""``tools/pivot_digest.py --quick`` runs and prints a consistent grid."""

import json
import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_pivot_digest_quick_grid():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "pivot_digest.py"), "--quick"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    rows = [json.loads(line) for line in done.stdout.splitlines()]
    # 4 families x 2 sizes x 3 seeds x 8 configurations, each printed once.
    assert len(rows) == 192
    keys = {(r["family"], r["n"], r["seed"], r["config"]) for r in rows}
    assert len(keys) == len(rows)
    # A change to the guard shows up in the same diff as a change of pivots.
    assert all("recompute_count" in r and "deficient_from" in r for r in rows)
    # So does a change to the solutions, bit for bit.
    assert all(len(r["x"]) == len(r["x_many"]) == 16 for r in rows)
    assert all(isinstance(r["singular"], bool) for r in rows)
    # The zero-bordered family is exactly singular, and solve says so.
    for r in rows:
        if r["family"] != "type10":
            assert r["singular"] is (r["family"] == "type6-padded"), r
    # max |L| is blind to the order of L's rows; its digest and the
    # reconstruction residual are not.  D has a digest of its own.
    assert all(len(r["L"]) == len(r["D"]) == 16 for r in rows)
    assert all(0.0 <= r["residual"] <= 1e-10 for r in rows)
    # On the full-rank families, blocked and unblocked runs pick the same pivots.
    pivots = defaultdict(dict)
    for r in rows:
        pivots[r["family"], r["n"], r["seed"]][r["config"]] = (r["perm"], r["pattern"])
    for (family, _, _), by_config in pivots.items():
        if family == "type10":
            continue
        for group in (("rcp", "b=1", "b=7"), ("bbk", "bbk b=1", "bbk b=7")):
            assert len({by_config[c] for c in group}) == 1, (family, group)
