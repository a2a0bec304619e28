"""End-to-end acceptance checks for the library.

Each test evaluates one numbered acceptance criterion at its stated
tolerance and emits a single PASS/FAIL line (shown with ``pytest -s``, or on
failure); ``pytest -v`` additionally reports one PASSED/FAILED row per
criterion.  The checks run real factorizations at the sizes named in the
criteria, so this module takes on the order of a minute.
"""

import math
import statistics
import time

import numpy as np
import pytest

from randldl import (
    SBKP_ALPHA,
    backward_error,
    factor,
    jl_required_p,
    reconstruct,
    schur_snapshots,
    solve,
)
from randldl.gallery import MatrixSpec, generate
from randldl.metrics import growth_from_snapshots

#: Unit roundoff of IEEE double precision (half the machine epsilon).
U = float(np.finfo(np.float64).eps) / 2.0


def gallery(family: str, n: int, seed: int = 0, **kwargs) -> np.ndarray:
    return generate(MatrixSpec(family=family, n=n, seed=seed, **kwargs))


def check(ok: bool, label: str, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
    assert ok, f"{label}: {detail}"


# -- criterion 1 -------------------------------------------------------------


def test_criterion_01_reconstruction_residual():
    """Every strategy reconstructs the permuted input within 50 rho n u |A|."""
    variants = [
        ("rcp-q1", dict(strategy="rcp", p=5, b=64, q=1)),
        ("rcp-qb", dict(strategy="rcp", p=64, b=64, q=64)),
        ("bkpp", dict(strategy="bkpp", b=64)),
        ("bbk", dict(strategy="bbk", b=64)),
    ]
    families = [f"type{i}" for i in (1, 2, 3, 4, 5, 6, 7, 8, 10)]
    worst, worst_at = 0.0, "-"
    for family in families:
        for n in (64, 256, 512):
            a = gallery(family, n)
            norm_a = float(np.abs(a).max())
            for name, kwargs in variants:
                f = factor(a, seed=0, **kwargs)
                permuted = a[np.ix_(f.perm, f.perm)]
                err = float(np.abs(reconstruct(f) - permuted).max())
                bound = 50.0 * f.stats.rho_cheap * n * U * norm_a
                ratio = err / bound
                if ratio > worst:
                    worst, worst_at = ratio, f"{name}/{family}/n={n}"
    check(
        worst <= 1.0,
        "criterion 1 (reconstruction residual)",
        f"worst err/bound = {worst:.3g} at {worst_at}",
    )


# -- criterion 2 -------------------------------------------------------------


def test_criterion_02_sketch_size_threshold():
    """The norm-preservation sketch-size formula reproduces p = 538."""
    got = jl_required_p(1000, 0.5, 0.05)
    check(got == 538, "criterion 2 (sketch-size threshold)", f"jl_required_p = {got}")


# -- criterion 3 -------------------------------------------------------------


def test_criterion_03_growth_separation():
    """Partial pivoting blows up on the growth trap; the sketched pivot does not."""
    a = gallery("type1", 100, epsilon=1e-8)
    bk_rho = factor(a, strategy="bkpp", b=1).stats.rho_cheap
    successes, rcp_worst = 0, 0.0
    for seed in range(5):
        rcp_rho = factor(a, strategy="rcp", p=5, seed=seed).stats.rho_cheap
        rcp_worst = max(rcp_worst, rcp_rho)
        if bk_rho > 1e6 and rcp_rho < 1e2:
            successes += 1
    check(
        successes == 5,
        "criterion 3 (growth separation)",
        f"partial-pivot rho = {bk_rho:.3g}, worst sketched rho = {rcp_worst:.3g}, "
        f"{successes}/5 seeds",
    )


# -- criterion 4 -------------------------------------------------------------


def test_criterion_04_comparison_count_scaling():
    """Rook search comparisons scale ~n^3 on the corner-band family; sketched ~n^2."""
    sizes = np.array([64, 128, 256, 512], dtype=np.float64)
    slopes = {}
    for strategy in ("bbk", "rcp"):
        comps = []
        for n in sizes.astype(int):
            f = factor(gallery("type2", int(n)), strategy=strategy, p=5, seed=0)
            comps.append(f.stats.counters.comps)
        slopes[strategy] = float(np.polyfit(np.log(sizes), np.log(comps), 1)[0])
    ok = slopes["bbk"] >= 2.6 and slopes["rcp"] <= 2.2
    check(
        ok,
        "criterion 4 (comparison-count scaling)",
        f"rook slope = {slopes['bbk']:.3f} (>= 2.6), "
        f"sketched slope = {slopes['rcp']:.3f} (<= 2.2)",
    )


# -- criteria 5 and 6 share one batch of runs -----------------------------------


@pytest.fixture(scope="module")
def growth_suite():
    """200 sketched runs at n = 256 across three families, growth replayed."""
    eps = 0.9
    n = 256
    counts = {"type3": 67, "type6": 67, "type7": 66}
    # Per-column multiplier bound at failure parameter eps: column c of L has
    # n - c active rows, and the threshold rule caps each entry by
    # (1 + sqrt((1+eps)/(1-eps)) * sqrt(n-c)) / min(alpha, 1 - alpha^2).
    denom = min(SBKP_ALPHA, 1.0 - SBKP_ALPHA**2)
    cols = np.arange(n, dtype=np.float64)
    col_bounds = (1.0 + math.sqrt((1 + eps) / (1 - eps)) * np.sqrt(n - cols)) / denom
    # Column-growth envelope at the same eps: polylogarithmic exponent in n.
    envelope = math.sqrt(2.0 * (1 + eps) / (1 - eps)) ** (3.0 + math.log(n - 1)) * math.sqrt(
        n + 2.0
    ) ** (2.0 + math.log(n - 1))
    results = dict(
        runs=0,
        mult_violations=0,
        cap_violations=0,
        env_violations=0,
        worst_mult=0.0,
        worst_cap=0.0,
        worst_env=0.0,
        envelope=envelope,
    )
    cap = 10.0 * math.sqrt(n)
    seed = 0
    for family, count in counts.items():
        for _ in range(count):
            a = gallery(family, n, seed=seed)
            f = factor(a, strategy="rcp", p=5, b=1, seed=seed + 10_000)
            _, rho_col = growth_from_snapshots(schur_snapshots(a, f))
            low = np.abs(np.tril(f.L, -1))
            colmax = low.max(axis=0)
            results["mult_violations"] += int(np.any(colmax > col_bounds))
            results["worst_mult"] = max(
                results["worst_mult"], float((colmax / col_bounds).max())
            )
            results["cap_violations"] += int(low.max() > cap)
            results["worst_cap"] = max(results["worst_cap"], float(low.max()) / cap)
            results["env_violations"] += int(rho_col > envelope)
            results["worst_env"] = max(results["worst_env"], rho_col / envelope)
            results["runs"] += 1
            seed += 1
    assert results["runs"] == 200
    return results


def test_criterion_05_multiplier_bounds(growth_suite):
    """No multiplier exceeds its per-column bound, nor the 10*sqrt(n) cap."""
    r = growth_suite
    ok = r["mult_violations"] == 0 and r["cap_violations"] == 0
    check(
        ok,
        "criterion 5 (multiplier bounds)",
        f"{r['runs']} runs, {r['mult_violations']} column-bound violations "
        f"(worst fraction {r['worst_mult']:.3g}), {r['cap_violations']} cap "
        f"violations (worst fraction {r['worst_cap']:.3g})",
    )


def test_criterion_06_column_growth_envelope(growth_suite):
    """Column-norm growth stays inside its polylogarithmic envelope."""
    r = growth_suite
    check(
        r["env_violations"] == 0,
        "criterion 6 (column-growth envelope)",
        f"{r['runs']} runs, {r['env_violations']} envelope violations "
        f"(envelope {r['envelope']:.3g}, worst fraction {r['worst_env']:.3g})",
    )


# -- criterion 7 -------------------------------------------------------------


def test_criterion_07_sketch_update_fidelity():
    """Downdated sketches track fresh projections to 1e-10 relative."""
    worst = 0.0
    for seed in range(20):
        a = gallery("type6", 200, seed=seed)
        f = factor(a, strategy="rcp", p=5, b=1, seed=seed, audit_sketch=True)
        worst = max(worst, max(f.stats.sketch_drift))
    check(
        worst <= 1e-10,
        "criterion 7 (sketch-update fidelity)",
        f"max relative drift over 20 runs = {worst:.3g}",
    )


# -- criterion 8 -------------------------------------------------------------


def test_criterion_08_backward_error():
    """Solves at n = 1000 stay below 1e-12 backward error for every strategy."""
    n = 1000
    worst, worst_at = 0.0, "-"
    for family in ("type3", "type4", "type5", "type6", "type7", "type8"):
        a = gallery(family, n, seed=11)
        x_true = np.random.Generator(np.random.Philox(99)).uniform(-1.0, 1.0, n)
        b = a @ x_true
        for strategy in ("rcp", "bkpp", "bbk"):
            f = factor(a, strategy=strategy, p=5, seed=1)
            err = solve(f, b, a=a).backward_error
            if err > worst:
                worst, worst_at = err, f"{strategy}/{family}"
    # Rank-deficient family with a consistent right-hand side, guarded mode.
    a = gallery("type10", n, seed=11)
    x_true = np.random.Generator(np.random.Philox(99)).uniform(-1.0, 1.0, n)
    b = a @ x_true
    f = factor(a, strategy="rcp", p=5, seed=1)
    err = solve(f, b, a=a).backward_error
    if err > worst:
        worst, worst_at = err, "rcp-robust/type10"
    check(
        worst <= 1e-12,
        "criterion 8 (backward error)",
        f"worst err = {worst:.3g} at {worst_at}",
    )


# -- criterion 9 -------------------------------------------------------------


def test_criterion_09_blocked_equals_unblocked():
    """Width-1 and width-64 panels pick identical pivots on 50 seeded runs."""
    matches = 0
    for seed in range(50):
        a = gallery("type6", 300, seed=seed)
        eager = factor(a, strategy="rcp", p=5, b=1, q=1, seed=seed)
        blocked = factor(a, strategy="rcp", p=5, b=64, q=1, seed=seed)
        if np.array_equal(eager.perm, blocked.perm) and np.array_equal(
            eager.pattern, blocked.pattern
        ):
            matches += 1
    check(
        matches == 50,
        "criterion 9 (blocked equals unblocked)",
        f"{matches}/50 runs produced identical permutations and pivot patterns",
    )


# -- criterion 10 ------------------------------------------------------------


def test_criterion_10_operation_count_ceiling():
    """Measured multiplication counts stay under n^3/6 + (p+2) n^2 + 10 n."""
    p = 5
    ok = True
    details = []
    for n in (128, 256):
        a = gallery("type6", n, seed=0)
        f = factor(a, strategy="rcp", p=p, b=1, q=1, seed=0)
        c = f.stats.counters
        bound = n**3 / 6.0 + (p + 2) * n**2 + 10.0 * n
        ok = ok and c.mults <= bound and c.mults + c.divs <= bound
        details.append(
            f"n={n}: mults={c.mults}, mults+divs={c.mults + c.divs}, "
            f"bound={bound:.0f}"
        )
    check(ok, "criterion 10 (operation-count ceiling)", "; ".join(details))


# -- criterion 11 ------------------------------------------------------------


@pytest.mark.timing
def test_criterion_11_overhead_trend():
    """Sketched/partial wall-time ratio is <= 1.5 at n = 1024 and non-increasing."""

    def seconds(a: np.ndarray, b: np.ndarray, strategy: str) -> float:
        t0 = time.perf_counter_ns()
        f = factor(a, strategy=strategy, p=5, seed=0)
        solve(f, b)
        return (time.perf_counter_ns() - t0) / 1e9

    ratios = {}
    for n in (512, 1024):
        a = gallery("type6", n, seed=0)
        b = a @ np.random.Generator(np.random.Philox(1)).uniform(-1.0, 1.0, n)
        for strategy in ("rcp", "bkpp"):  # warm up caches and BLAS pools
            factor(a, strategy=strategy, p=5, seed=0)
        # Alternate the strategies, so a drift in host speed during the
        # repetitions lands on both medians alike.
        times = {"rcp": [], "bkpp": []}
        for _ in range(5):
            for strategy in times:
                times[strategy].append(seconds(a, b, strategy))
        ratios[n] = statistics.median(times["rcp"]) / statistics.median(times["bkpp"])
    ok = ratios[1024] <= 1.5 and ratios[1024] <= ratios[512]
    check(
        ok,
        "criterion 11 (overhead trend)",
        f"ratio at n=512: {ratios[512]:.3f}, at n=1024: {ratios[1024]:.3f}",
    )
