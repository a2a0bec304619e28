"""Shared helpers for the test suite."""

from __future__ import annotations

import numpy as np

from randldl import Factorization, reconstruct
from randldl.core import column_norms


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
