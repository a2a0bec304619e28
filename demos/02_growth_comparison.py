"""Element growth: where partial pivoting fails and randomized pivoting holds.

The gallery's ``type1`` family couples a decaying diagonal to an all-ones
block so that partial pivoting accepts a cascade of tiny 1x1 pivots — each
acceptance test lands exactly on its threshold — and the Schur complement
entries double (and more) every step.  A randomized column pivot breaks the
cascade immediately, because the all-ones columns have much larger norms
than the decaying-diagonal columns.
"""

import numpy as np

from randldl import factor, schur_snapshots
from randldl.gallery import MatrixSpec, generate
from randldl.metrics import growth_from_snapshots

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
# 5. The elementwise and columnwise growth factors are measured on every
#    Schur complement, which schur_snapshots replays from the input and the
#    finished factors (more expensive than the factorization: it forms each
#    Schur complement in full).
# ----------------------------------------------------------------------
rho_elem, rho_col = growth_from_snapshots(schur_snapshots(a, bk))
print(f"partial pivoting rho_elem = {rho_elem:.3e}, rho_col = {rho_col:.3e}")
rc = factor(a, strategy="rcp", p=5, seed=0)
rho_elem, rho_col = growth_from_snapshots(schur_snapshots(a, rc))
print(f"sketched pivoting rho_elem = {rho_elem:.3f}, rho_col = {rho_col:.3f}")
