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
    # 6 families x 2 sizes x 3 seeds x 9 configurations, each printed once.
    assert len(rows) == 324
    keys = {(r["family"], r["n"], r["seed"], r["config"]) for r in rows}
    assert len(keys) == len(rows)
    # A change to the guard shows up in the same diff as a change of pivots.
    assert all("recompute_count" in r and "deficient_from" in r for r in rows)
    # So does a change to the solutions, bit for bit.
    assert all(len(r["x"]) == len(r["x_many"]) == 16 for r in rows)
    assert all(isinstance(r["singular"], bool) for r in rows)
    # The zero-bordered families are exactly singular, and solve says so.
    for r in rows:
        if r["family"] != "type10":
            assert r["singular"] is (r["family"] in ("type6-padded", "type6-half")), r
    # max |L| is blind to the order of L's rows; its digest and the
    # reconstruction residual are not.  D has a digest of its own.
    assert all(len(r["L"]) == len(r["D"]) == 16 for r in rows)
    assert all(0.0 <= r["residual"] <= 1e-10 for r in rows)
    # Only the audited runs digest their sketch drift; bkpp and bbk keep no
    # sketch.  The audit changes nothing else.
    assert all((r["drift"] is None) is (r["config"] != "audit") for r in rows)
    # The guard's cut: q = 1 rcp stops where the zero border starts; q = b
    # reads the sketch only at a panel's start, so it stops there or later;
    # bkpp and bbk keep no guard, and the other families are of full rank.
    zeros = {"type6-padded": lambda n: 3, "type6-half": lambda n: n // 2}
    for r in rows:
        cut = r["deficient_from"]
        if r["family"] not in zeros or r["config"].startswith(("bkpp", "bbk")):
            assert cut is None, r
        elif r["config"] == "p=b=q=64":
            assert cut is None or cut >= r["n"] - zeros[r["family"]](r["n"]), r
        else:
            assert r["config"] in ("rcp", "b=1", "b=7", "audit"), r
            assert cut == r["n"] - zeros[r["family"]](r["n"]), r
    by_case = defaultdict(dict)
    for r in rows:
        by_case[r["family"], r["n"], r["seed"]][r["config"]] = r
    for case in by_case.values():
        audit, plain = dict(case["audit"]), dict(case["rcp"])
        for r in (audit, plain):
            del r["config"], r["drift"]
        assert audit == plain
    # Blocked and unblocked runs pick the same pivots, except on type10, whose
    # tail is pivoted among values at rounding level.
    for (family, _, _), case in by_case.items():
        if family == "type10":
            continue
        for group in (("rcp", "b=1", "b=7"), ("bbk", "bbk b=1", "bbk b=7")):
            pivots = {(case[c]["perm"], case[c]["pattern"]) for c in group}
            assert len(pivots) == 1, (family, group)
