"""Dense symmetric kernels shared by the factorization code.

Conventions used throughout the package:

* A symmetric matrix is a square, C-contiguous ``float64`` ndarray whose
  two triangles hold identical values.  Full storage keeps every kernel a
  plain BLAS call; routines that rewrite a triangle mirror it afterwards so
  the equality stays exact.
* A permutation is a 1-D integer ndarray ``perm`` of length n containing
  each index exactly once.  Applied symmetrically it relabels the matrix as
  ``A[perm][:, perm]``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "require_square",
    "require_symmetric",
    "is_exactly_symmetric",
    "identity_permutation",
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


def is_exactly_symmetric(a: np.ndarray) -> bool:
    """True when both triangles hold identical values (no tolerance)."""
    return bool(np.array_equal(a, a.T))


def require_symmetric(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Validate squareness and exact symmetry."""
    a = require_square(a, name)
    if not is_exactly_symmetric(a):
        raise ValueError(f"{name} must be symmetric (exact equality of triangles)")
    return a


def identity_permutation(n: int) -> np.ndarray:
    return np.arange(n, dtype=np.int64)


def sym_swap(a: np.ndarray, i: int, j: int) -> None:
    """Swap rows and columns ``i`` and ``j`` of ``a`` in place.

    A symmetric permutation only relabels entries, so exact symmetry is
    preserved bit for bit.
    """
    n = a.shape[0]
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"swap indices ({i}, {j}) out of range for n={n}")
    if i == j:
        return
    a[[i, j], :] = a[[j, i], :]
    a[:, [i, j]] = a[:, [j, i]]


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

