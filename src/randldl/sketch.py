"""Column selection on a Gaussian sketch.

A sketch is a p x m matrix ``B = Omega @ A`` whose column norms estimate the
column norms of ``A``.  The factorization engine draws ``Omega``, forms and
downdates ``B`` itself; this module holds the batch selection used by q = b
panels, which picks a panel's worth of columns from ``B`` at once.
"""

from __future__ import annotations

import numpy as np

from .core import column_norms

__all__ = ["partial_qrcp"]


def partial_qrcp(b: np.ndarray, q: int) -> list[int]:
    """First q column pivots of Householder QR with column pivoting.

    Runs q steps of the greedy factorization on a copy of ``b`` and returns
    the selected original column indices in selection order.  Each step picks
    the trailing column of largest residual norm (ties break to the lowest
    index), eliminates it with a Householder reflector, and recomputes the
    residual norms of the remainder.
    """
    b = np.array(b, dtype=np.float64, copy=True)
    if b.ndim != 2:
        raise ValueError("partial_qrcp expects a 2-D array")
    p, m = b.shape
    if not (1 <= q <= min(p, m)):
        raise ValueError(f"q={q} must lie in [1, {min(p, m)}] for a {p} x {m} sketch")
    cols = np.arange(m)
    selected: list[int] = []
    for k in range(q):
        norms = column_norms(b[k:, :], from_col=k)
        j = k + int(np.argmax(norms))
        if j != k:
            b[:, [k, j]] = b[:, [j, k]]
            cols[[k, j]] = cols[[j, k]]
        selected.append(int(cols[k]))
        x = b[k:, k]
        nx = float(np.linalg.norm(x))
        if nx == 0.0:
            continue
        v = x.copy()
        v[0] += np.copysign(nx, x[0] if x[0] != 0.0 else 1.0)
        vn2 = float(v @ v)
        if vn2 == 0.0:
            continue
        b[k:, k:] -= np.outer(v, (2.0 / vn2) * (v @ b[k:, k:]))
    return selected
