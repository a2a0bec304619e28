"""Column selection on a Gaussian sketch.

A sketch is a p x m matrix ``B = Omega @ A`` whose column norms estimate the
column norms of ``A``.  The factorization engine draws ``Omega``, forms and
downdates ``B`` itself; this module holds the batch selection used by q = b
panels, which picks a panel's worth of columns from ``B`` at once with one
LAPACK ``dgeqp3`` (QR with column pivoting) call.  ``dgeqp3`` computes its
column norms with the scaled ``dnrm2``, so the selection does not depend on
the scaling of ``B``: ``c * B`` picks the same columns for every power of
two ``c`` that keeps ``c * B`` finite and normal.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dgeqp3

__all__ = ["partial_qrcp"]


def partial_qrcp(b: np.ndarray, q: int) -> list[int]:
    """First q column pivots of Householder QR with column pivoting.

    Runs LAPACK ``dgeqp3`` on a copy of ``b`` and returns the first q
    selected original column indices in selection order.  Each step picks
    the trailing column of largest residual norm (ties break to the lowest
    current position), swaps it into place and eliminates it with a
    Householder reflector.  Norms are scaled, so the selection is the same
    for ``b`` and ``c * b`` at any power-of-two scale ``c``.
    """
    b = np.asarray(b, dtype=np.float64)
    if b.ndim != 2:
        raise ValueError("partial_qrcp expects a 2-D array")
    p, m = b.shape
    if not (1 <= q <= min(p, m)):
        raise ValueError(f"q={q} must lie in [1, {min(p, m)}] for a {p} x {m} sketch")
    _, jpvt, _, _, info = dgeqp3(b)
    if info != 0:
        raise RuntimeError(f"dgeqp3 failed with info={info}")
    return [int(j) - 1 for j in jpvt[:q]]
