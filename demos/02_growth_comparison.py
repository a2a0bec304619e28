"""Element growth: where partial pivoting fails and randomized pivoting holds.

The gallery's ``type1`` family couples a decaying diagonal to an all-ones
block so that partial pivoting accepts a cascade of tiny 1x1 pivots — each
acceptance test lands exactly on its threshold — and the Schur complement
entries double (and more) every step.  A randomized column pivot breaks the
cascade immediately, because the all-ones columns have much larger norms
than the decaying-diagonal columns.
"""

import numpy as np

from randldl import factor
from randldl.gallery import MatrixSpec, generate

# ----------------------------------------------------------------------
# 1. Build the growth trap at n = 100.
# ----------------------------------------------------------------------
n = 100
a = generate(MatrixSpec(family="type1", n=n, epsilon=1e-8))
print(f"decaying diagonal head: {np.diag(a)[:4]}")

# ----------------------------------------------------------------------
# 2. Partial pivoting ("bkpp") with width-1 panels: the cheap growth factor
#    rho = max|D| / max|A| explodes exponentially with n.
# ----------------------------------------------------------------------
bk = factor(a, strategy="bkpp", b=1)
print(f"partial pivoting   rho = {bk.stats.rho_cheap:.3e}")

# ----------------------------------------------------------------------
# 3. Randomized column pivoting ("rcp") with a 5-row sketch: the all-ones
#    columns are selected first and the growth factor stays O(1).  Any seed
#    behaves this way; try a few.
# ----------------------------------------------------------------------
for seed in range(3):
    rc = factor(a, strategy="rcp", p=5, seed=seed)
    print(f"sketched pivoting  rho = {rc.stats.rho_cheap:.3f} (seed {seed})")

# ----------------------------------------------------------------------
# 4. Rook pivoting ("bbk") also avoids the blow-up — at the price of extra
#    column scans per pivot (compare the comparison counters).
# ----------------------------------------------------------------------
rook = factor(a, strategy="bbk", b=1)
print(f"rook pivoting      rho = {rook.stats.rho_cheap:.3f}")
print(f"comparisons: partial={bk.stats.counters.comps}, "
      f"rook={rook.stats.counters.comps}")

# ----------------------------------------------------------------------
# 5. Full growth tracking snapshots every Schur complement and reports the
#    elementwise and columnwise growth factors (more expensive: it copies
#    the active Schur complement at every step).
# ----------------------------------------------------------------------
tracked = factor(a, strategy="bkpp", b=1, track_growth="full")
print(f"partial pivoting rho_elem = {tracked.stats.rho_elem:.3e}, "
      f"rho_col = {tracked.stats.rho_col:.3e}")
tracked = factor(a, strategy="rcp", p=5, seed=0, track_growth="full")
print(f"sketched pivoting rho_elem = {tracked.stats.rho_elem:.3f}, "
      f"rho_col = {tracked.stats.rho_col:.3f}")
