"""Shared helpers for the test suite."""

from __future__ import annotations

import numpy as np

from randldl import Factorization, reconstruct
from randldl.core import column_norms
from randldl.pivot import OffDiagTable


def random_symmetric(n: int, seed: int = 0) -> np.ndarray:
    """Dense symmetric Gaussian test matrix (mirrored lower triangle)."""
    gen = np.random.Generator(np.random.Philox(seed))
    g = gen.standard_normal((n, n))
    return np.tril(g) + np.tril(g, -1).T


def recon_error(a: np.ndarray, f: Factorization) -> float:
    """Max-entry error of ``L D L^T`` against the permuted input, relative."""
    permuted = a[np.ix_(f.perm, f.perm)]
    denom = float(np.abs(a).max())
    err = float(np.abs(reconstruct(f) - permuted).max())
    return err / denom if denom else err


def reference_partial_qrcp(b: np.ndarray, q: int) -> list[int]:
    """Greedy Householder QRCP in Python: the first q column pivots.

    Each step picks the trailing column of largest residual norm (ties break
    to the lowest current position), swaps it into place, eliminates it with
    a Householder reflector and recomputes the residual norms.  The norms are
    unscaled, so this reference is meant for unit-scale inputs only.
    """
    b = np.array(b, dtype=np.float64, copy=True)
    m = b.shape[1]
    cols = np.arange(m)
    selected: list[int] = []
    for k in range(q):
        norms = column_norms(b[k:, k:])
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


# Block edge of ``_offdiag_table``'s row-segment copies; the diagonal blocks
# take their strict lower triangle through the constant mask ``_STRICT_LOWER``.
_TABLE_BLOCK = 128
_STRICT_LOWER = np.tril(np.ones((_TABLE_BLOCK, _TABLE_BLOCK), dtype=bool), -1)


def _offdiag_table(a: np.ndarray) -> OffDiagTable:
    """``_scan_max_off`` of every column of the matrix whose lower triangle is ``a``.

    A whole-block reference for the off-diagonal table, which the engine
    keeps column by column (see ``factor._Engine._long_walk``), for a block
    whose first position is 0.  Returns three lists: ``|a_jj|``, and the
    value and index that ``_scan_max_off(np.abs(column j), j)`` returns for
    every j (m >= 2).
    Row j of one m x m work array, in C order, is made that scan's input:
    the column segment ``|a[j+1:, j]|`` read through the transpose of ``a``
    (contiguous when ``a`` is column-major, as the engine's block is), the
    row segment ``|a[j, :j]|`` copied into the strict lower triangle block
    by block, and -inf on the diagonal.  Its row maxima and first
    argmaxes are then bitwise the column scans', ties and NaNs included.
    The strict upper triangle of ``a`` is never used.
    """
    m = a.shape[0]
    # Row j of a.T holds column j of the lower triangle from its diagonal on.
    work = np.abs(a.T, order="C")
    for c0 in range(0, m, _TABLE_BLOCK):
        c1 = min(c0 + _TABLE_BLOCK, m)
        np.abs(a[c1:, c0:c1], out=work[c1:, c0:c1])
        square = slice(c0, c1)
        lower = _STRICT_LOWER[: c1 - c0, : c1 - c0]
        np.copyto(work[square, square], np.abs(a[square, square]), where=lower)
    work.flat[:: m + 1] = -np.inf
    imax = work.argmax(axis=1)
    vmax = work[np.arange(m), imax]
    return np.abs(a.diagonal()).tolist(), vmax.tolist(), imax.tolist()
