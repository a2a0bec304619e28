"""Compare the three strategies on a small grid with a plain loop.

Each cell factors one matrix, solves one system against it and prints the
cheap growth factor, the modeled comparison count and the backward error.
The grid is a direct loop over :func:`factor` and :func:`solve`; wall times
are left to ``perfbench/run.py``, which pairs every call with LAPACK, and
pivot-by-pivot comparisons to ``tools/pivot_digest.py``.
"""

import numpy as np

from randldl import MatrixSpec, factor, generate, solve

# ----------------------------------------------------------------------
# 1. Describe the grid.  The matrix of a cell is seeded by (family, n,
#    trial) only, so every strategy sees the same system and the
#    comparison across strategies is paired.
# ----------------------------------------------------------------------
strategies = ["rcp", "bkpp", "bbk"]
families = ["type2", "type6"]
sizes = [64, 128]
trials = 2

# ----------------------------------------------------------------------
# 2. Run it: one factor and one solve per strategy x family x n x trial.
# ----------------------------------------------------------------------
print(f"{'strategy':>8} {'family':>7} {'n':>5} {'trial':>5} {'rho':>10} {'comps':>10} {'err':>10}")
for family in families:
    for n in sizes:
        for trial in range(trials):
            a = generate(MatrixSpec(family=family, n=n, seed=trial))
            b = a @ np.ones(n)
            for strategy in strategies:
                f = factor(a, strategy=strategy, seed=trial)
                err = solve(f, b, a=a).backward_error
                print(
                    f"{strategy:>8} {family:>7} {n:>5} {trial:>5} "
                    f"{f.stats.rho_cheap:>10.3f} {f.stats.counters.comps:>10} {err:>10.2e}"
                )
