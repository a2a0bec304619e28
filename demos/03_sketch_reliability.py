"""How big must a sketch be, how accurate is its maintenance, and what
happens when it collapses on a rank-deficient matrix.

Three aspects of the Gaussian projection behind the "rcp" strategy:

* the sketch-size formula that guarantees norm preservation,
* the accuracy of the cheap rank-s downdates used instead of re-projecting,
* the guarded mode that detects a numerically zero Schur complement and
  finishes early with zero trailing blocks.
"""

import numpy as np

from randldl import factor, factor_robust, jl_required_p, solve
from randldl.gallery import MatrixSpec, generate

# ----------------------------------------------------------------------
# 1. Norm-preserving sketch sizes.  To preserve all pairwise column norms
#    of n = 1000 vectors within a factor sqrt(1 +/- 0.5), with failure
#    probability at most 5%, the sketch needs p >= 538 rows.  In practice a
#    handful of rows (p = 5 or so) already steers the pivot order well —
#    the guarantee is a worst-case statement.
# ----------------------------------------------------------------------
print(f"norm-preserving sketch size for n=1000: p >= {jl_required_p(1000, 0.5, 0.05)}")

# ----------------------------------------------------------------------
# 2. Sketch maintenance accuracy.  With audit_sketch=True the engine keeps
#    the projection matrix and measures, at every panel, the drift between
#    the downdated sketch and a fresh projection of the active Schur
#    complement.  The drift stays near roundoff.
# ----------------------------------------------------------------------
a = generate(MatrixSpec(family="type6", n=200, seed=3))
f = factor(a, strategy="rcp", p=5, seed=0, audit_sketch=True)
print(f"sketch drift: max = {max(f.stats.sketch_drift):.3e} "
      f"over {len(f.stats.sketch_drift)} panels")

# ----------------------------------------------------------------------
# 3. Guarded mode on a rank-deficient matrix.  This matrix has numerical
#    rank about 55: its eigenvalues decay geometrically and everything
#    beyond is flushed to zero.  The guard watches the selected sketched
#    column norm; when it collapses, the sketch is recomputed once from a
#    fresh projection, and if the collapse is confirmed the remaining
#    indices become explicit zero blocks.
# ----------------------------------------------------------------------
n = 300
a = generate(MatrixSpec(family="type10", n=n, seed=1))
f = factor_robust(a, strategy="rcp", p=5, seed=0)
print(f"deficient from index: {f.deficient_from} (of n={n})")
print(f"sketch recomputations: {f.stats.recompute_count}")
print(f"growth factor rho = {f.stats.rho_cheap:.3f}")

# ----------------------------------------------------------------------
# 4. Solving with a consistent right-hand side still works: the singular
#    flag is raised, the null-space components are zeroed, and the backward
#    error stays tiny because b lies in the range of the matrix.
# ----------------------------------------------------------------------
x_true = np.random.Generator(np.random.Philox(9)).uniform(-1.0, 1.0, n)
b = a @ x_true
report = solve(f, b, a=a)
print(f"singular = {report.singular}, backward error = {report.backward_error:.3e}")
