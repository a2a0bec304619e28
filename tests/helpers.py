"""Shared helpers for the test suite."""

from __future__ import annotations

import ctypes
from pathlib import Path

import numpy as np
import pytest
import scipy

from randldl import PAT_PAIR_END, PAT_PAIR_START, Factorization, reconstruct
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


def lapack_rook(a: np.ndarray, blocked: bool) -> tuple[np.ndarray, np.ndarray]:
    """``perm`` and ``pattern`` of LAPACK's rook-pivoted ``uplo = 'L'`` LDL^T.

    ``dsytrf_rook`` (blocked, after a workspace query) or ``dsytf2_rook``,
    reached through ``ctypes`` in the OpenBLAS that SciPy's wheels ship
    beside the package as ``scipy.libs/libscipy_openblas*.so``, whose
    symbols carry a ``scipy_`` prefix.  Skips the calling test when that
    library or a symbol is missing, as in a conda or distro SciPy.  ``ipiv``
    is read as LAPACK documents it: ``ipiv[k] > 0`` is a 1x1 block after
    interchanging k and ``ipiv[k]``; a negative pair is a 2x2 block after
    interchanging k and ``-ipiv[k]``, then k + 1 and ``-ipiv[k + 1]``
    (all 1-based).
    """
    name = "scipy_dsytrf_rook_" if blocked else "scipy_dsytf2_rook_"
    libs = sorted((Path(scipy.__file__).parent.parent / "scipy.libs").glob("libscipy_openblas*.so"))
    if not libs:
        pytest.skip("no libscipy_openblas beside the loaded SciPy")
    try:
        routine = getattr(ctypes.CDLL(str(libs[0])), name)
    except AttributeError:
        pytest.skip(f"{libs[0].name} exports no {name}")
    ptr, int_p = ctypes.c_void_p, ctypes.POINTER(ctypes.c_int)
    # uplo, n, a, lda, ipiv, [work, lwork,] info, then uplo's length.
    work_args = [ptr, int_p] if blocked else []
    routine.argtypes = [ctypes.c_char_p, int_p, ptr, int_p, ptr, *work_args, int_p, ctypes.c_size_t]
    routine.restype = None
    n = a.shape[0]
    work_a = np.array(a, dtype=np.float64, order="F")
    ipiv = np.zeros(n, dtype=np.intc)
    c_n, info = ctypes.c_int(n), ctypes.c_int(0)
    head = (b"L", c_n, work_a.ctypes.data, c_n, ipiv.ctypes.data)
    if blocked:
        query = np.zeros(1)
        routine(*head, query.ctypes.data, ctypes.c_int(-1), info, 1)
        assert info.value == 0, info.value
        work = np.zeros(max(1, int(query[0])))
        routine(*head, work.ctypes.data, ctypes.c_int(work.size), info, 1)
    else:
        routine(*head, info, 1)
    assert info.value >= 0, info.value
    perm = np.arange(n)
    pattern = np.zeros(n, dtype=np.int8)
    k = 0
    while k < n:
        s = 1 if ipiv[k] > 0 else 2
        for i in range(k, k + s):
            j = abs(int(ipiv[i])) - 1
            perm[[i, j]] = perm[[j, i]]
        if s == 2:
            pattern[k], pattern[k + 1] = PAT_PAIR_START, PAT_PAIR_END
        k += s
    return perm, pattern
