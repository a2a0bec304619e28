"""Dense symmetric kernels shared by the factorization code.

Conventions used throughout the package:

* A symmetric matrix given to the package is a square ``float64`` ndarray
  whose two triangles hold identical values.
* The factorization keeps only the lower triangle of the block it is still
  eliminating, as LAPACK ``dsytrf`` does: kernels that work on that block
  read and write its lower triangle and leave the strict upper one alone.
  ``mirror_lower`` rebuilds the full matrix where one is needed.
* A permutation is a 1-D integer ndarray ``perm`` of length n containing
  each index exactly once.  Applied symmetrically it relabels the matrix as
  ``A[perm][:, perm]``.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "require_square",
    "require_finite",
    "require_symmetric",
    "is_exactly_symmetric",
    "identity_permutation",
    "exchange",
    "sym_swap",
    "mirror_lower",
    "column_norms",
]


def require_square(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Validate that ``a`` is a 2-D square float array and return it as float64."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    if a.shape[0] == 0:
        raise ValueError(f"{name} must have at least one row")
    return a


def require_finite(a: np.ndarray, name: str = "matrix") -> float:
    """Largest magnitude in ``a``; a NaN or Inf raises ``ValueError`` by name.

    A NaN propagates into both the max and the min pass and an infinity
    reaches one of them, so no temporary the size of ``a`` is needed.  Run
    it before a symmetry check, which a NaN fails as asymmetry (NaN != NaN).
    """
    hi, lo = float(a.max()), float(a.min())
    if not (math.isfinite(hi) and math.isfinite(lo)):
        raise ValueError(f"{name} contains NaN or Inf")
    return max(hi, -lo)


# Tile edge of the symmetry check.  A 128 x 128 tile of float64 is 128 KiB,
# so its transposed partner is read from cache; comparing against the whole
# ``a.T`` steps a full row of ``a`` per element (16 KiB at n = 2048).
_TILE = 128


def is_exactly_symmetric(a: np.ndarray) -> bool:
    """True when ``a`` is square and both triangles hold identical values.

    The comparison is exact (``==``, so a NaN fails it) and runs tile by
    tile: each tile on or below the diagonal against its transposed partner.
    """
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        return False
    n = a.shape[0]
    for i in range(0, n, _TILE):
        for j in range(0, i + 1, _TILE):
            rows, cols = slice(i, i + _TILE), slice(j, j + _TILE)
            if not np.array_equal(a[rows, cols], a[cols, rows].T):
                return False
    return True


def require_symmetric(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Validate squareness and exact symmetry."""
    a = require_square(a, name)
    if not is_exactly_symmetric(a):
        raise ValueError(f"{name} must be symmetric (exact equality of triangles)")
    return a


def identity_permutation(n: int) -> np.ndarray:
    return np.arange(n, dtype=np.int64)


def exchange(x: np.ndarray, y: np.ndarray) -> None:
    """Swap the contents of two same-shape views, through one temporary."""
    tmp = x.copy()
    x[...] = y
    y[...] = tmp


def sym_swap(a: np.ndarray, i: int, j: int) -> None:
    """Swap rows and columns ``i`` and ``j`` of the lower triangle of ``a``.

    Only the lower triangle of ``a`` (typically a view of the active block)
    is read or written, in the order of LAPACK ``dsyswapr``: the row
    segments left of ``i``, the column below ``i`` against the row left of
    ``j``, the two diagonal entries, and the columns below ``j``.  Entry
    ``(j, i)`` maps onto itself.  A symmetric permutation only relabels
    entries, so the result is exactly ``np.tril`` of the relabeled matrix.
    """
    n = a.shape[0]
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"swap indices ({i}, {j}) out of range for n={n}")
    if i == j:
        return
    if i > j:
        i, j = j, i
    exchange(a[i, :i], a[j, :i])
    exchange(a[i + 1 : j, i], a[j, i + 1 : j])
    a[i, i], a[j, j] = a[j, j], a[i, i]
    exchange(a[j + 1 :, i], a[j + 1 :, j])


def mirror_lower(a: np.ndarray) -> np.ndarray:
    """Copy the strict lower triangle of ``a`` onto the upper, in place."""
    il, ju = np.tril_indices(a.shape[0], -1)
    a[ju, il] = a[il, ju]
    return a


def column_norms(m: np.ndarray, from_col: int = 0) -> np.ndarray:
    """Euclidean norms of columns ``from_col:`` of ``m``.

    Accumulates squares of entries scaled by each column's max magnitude, so
    columns with entries up to about 1e150 neither overflow nor underflow to
    zero spuriously.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError("column_norms expects a 2-D array")
    if not (0 <= from_col <= m.shape[1]):
        raise ValueError(f"from_col={from_col} out of range for {m.shape[1]} columns")
    block = np.abs(m[:, from_col:])
    if block.shape[1] == 0:
        return np.zeros(0)
    if block.shape[0] == 0:
        return np.zeros(block.shape[1])
    scale = block.max(axis=0)
    safe = np.where(scale > 0.0, scale, 1.0)
    scaled = block / safe
    return scale * np.sqrt(np.einsum("ij,ij->j", scaled, scaled))

