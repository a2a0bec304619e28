"""Dense symmetric kernels shared by the factorization code.

Conventions used throughout the package:

* A symmetric matrix given to the package is a square ``float64`` ndarray
  whose two triangles hold identical values.
* The factorization keeps only the lower triangle of the block it is still
  eliminating, as LAPACK ``dsytrf`` does: kernels that work on that block
  read and write its lower triangle and leave the strict upper one alone.
  ``mirror_lower`` rebuilds the full matrix where one is needed.
* The factorization's working arrays (the matrix, ``L`` and the panel
  buffer) are column-major, as in LAPACK, so a column is contiguous and a
  row is strided.  Kernels take any layout; ``sym_swap`` reads one row
  segment, the rest are columns.  The rows of finished columns of ``L``
  are not swapped step by step: each closed block of them is permuted by
  one gather after the last step.
* A permutation is a 1-D integer ndarray ``perm`` of length n containing
  each index exactly once.  Applied symmetrically it relabels the matrix as
  ``A[perm][:, perm]``.
* Every level-3 product of the factorization runs on SciPy's BLAS.  The
  large ones (the trailing update and the sketch projections) go through
  ``gemm``, which calls ``dgemm`` on column-major views in place, through
  their leading dimensions, as LAPACK ``dlasyf`` updates its trailing
  block.  NumPy and SciPy each load their own OpenBLAS with its own thread
  pool; large products on both make one pool's idle workers spin while
  the other's run.
"""

from __future__ import annotations

import ctypes
import math

import numpy as np
from scipy.linalg import cython_blas

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
    if i:
        exchange(a[i, :i], a[j, :i])
    exchange(a[i + 1 : j, i], a[j, i + 1 : j])
    a[i, i], a[j, j] = a[j, j], a[i, i]
    exchange(a[j + 1 :, i], a[j + 1 :, j])


def mirror_lower(a: np.ndarray) -> np.ndarray:
    """Copy the strict lower triangle of ``a`` onto the upper, in place."""
    il, ju = np.tril_indices(a.shape[0], -1)
    a[ju, il] = a[il, ju]
    return a


# column_norms rescales when the largest sum of squares is below this.  At or
# above it, every column whose sum is within rounding of the largest one is
# far above the subnormal range, so squares lost to underflow cannot change
# which column is largest.
_TINY_SUM = 2.0**-900


def column_norms(m: np.ndarray, from_col: int = 0) -> np.ndarray:
    """Euclidean norms of columns ``from_col:`` of ``m``.

    The squares are summed as the entries stand.  If the largest sum
    overflowed or lies near the subnormal range, they are summed again at
    the power of two that brings the block's largest magnitude into
    [0.5, 1), so no column overflows.  Either way the norms of ``2**e * m``
    are ``2**e`` times those of ``m``, up to squares lost to underflow far
    below the largest, and the largest column is the same one.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError("column_norms expects a 2-D array")
    if not (0 <= from_col <= m.shape[1]):
        raise ValueError(f"from_col={from_col} out of range for {m.shape[1]} columns")
    block = m[:, from_col:]
    if block.size == 0:
        return np.zeros(block.shape[1])
    sums = _sums_of_squares(block)
    if _TINY_SUM <= sums[sums.argmax()] < math.inf:
        return np.sqrt(sums, out=sums)
    top = float(np.abs(block).max())
    if top == 0.0 or not math.isfinite(top):
        return np.sqrt(sums, out=sums)
    e = math.frexp(top)[1]
    return np.ldexp(np.sqrt(_sums_of_squares(np.ldexp(block, -e))), e)


def _sums_of_squares(block: np.ndarray) -> np.ndarray:
    """Each column's sum of squares, accumulated from the first row down.

    einsum runs over a C-ordered copy, adding one row's squares to all the
    sums at once; on a short column-major block, such as the sketch, that
    beats summing each column on its own.  Unlike a ufunc, einsum does not
    warn when a square overflows, which column_norms handles itself.
    """
    sq = np.ascontiguousarray(block)
    return np.einsum("ij,ij->j", sq, sq)


# SciPy's BLAS dgemm, through the function pointer cython_blas exports.  The
# capsule and function prototypes are built here rather than taken from
# ctypes.pythonapi, whose shared prototypes other code may have set.
_capsule = cython_blas.__pyx_capi__["dgemm"]
_capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
    ("PyCapsule_GetName", ctypes.pythonapi)
)
_capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi)
)
_INT, _DOUBLE = ctypes.POINTER(ctypes.c_int), ctypes.POINTER(ctypes.c_double)
_dgemm = ctypes.CFUNCTYPE(
    None,
    ctypes.c_char_p, ctypes.c_char_p, _INT, _INT, _INT,  # transa, transb, m, n, k
    _DOUBLE, ctypes.c_void_p, _INT, ctypes.c_void_p, _INT,  # alpha, a, lda, b, ldb
    _DOUBLE, ctypes.c_void_p, _INT,  # beta, c, ldc
)(_capsule_pointer(_capsule, _capsule_name(_capsule)))
del _capsule

# cython_blas is LP64: every dimension it takes is a C int.
_INT_MAX = 2**31 - 1


def _leading_dim(x: np.ndarray, name: str) -> int:
    """Leading dimension of ``x`` as a column-major matrix; ``ValueError`` if it is not one."""
    if not isinstance(x, np.ndarray) or x.ndim != 2 or x.dtype != np.float64:
        raise ValueError(f"gemm: {name} must be a 2-D float64 ndarray")
    rows, cols = x.shape
    ld = x.strides[1] // 8 if cols > 1 else rows
    if (rows > 1 and x.strides[0] != 8) or (cols > 1 and (x.strides[1] % 8 or ld < rows)):
        raise ValueError(f"gemm: {name} is not a column-major view (strides {x.strides})")
    if max(rows, cols, ld) > _INT_MAX:
        raise ValueError(f"gemm: {name} has a dimension beyond a C int")
    return max(ld, 1)


def gemm(
    alpha: float,
    a: np.ndarray,
    b: np.ndarray,
    beta: float,
    c: np.ndarray,
    trans_a: bool = False,
    trans_b: bool = False,
) -> None:
    """``c = alpha * op(a) @ op(b) + beta * c`` in place, by BLAS ``dgemm``.

    ``op(x)`` is ``x.T`` if its ``trans_`` flag is set, else ``x``.  Every
    operand is a float64 column-major view: unit row stride and a column
    stride of at least its row count, handed to BLAS as the leading
    dimension, so ``c`` may be a block of a larger, padded array.  Any other
    operand, a read-only ``c``, a ``c`` that may overlap an input, or shapes
    that do not conform raise ``ValueError`` before a pointer reaches BLAS.
    With ``beta = 0`` the old values of ``c`` are not read.
    """
    lda, ldb, ldc = _leading_dim(a, "a"), _leading_dim(b, "b"), _leading_dim(c, "c")
    m, k = a.shape[::-1] if trans_a else a.shape
    kb, n = b.shape[::-1] if trans_b else b.shape
    if kb != k or c.shape != (m, n):
        raise ValueError(f"gemm: shapes {a.shape}, {b.shape} and {c.shape} do not conform")
    if not c.flags.writeable:
        raise ValueError("gemm: c is read-only")
    if np.may_share_memory(c, a) or np.may_share_memory(c, b):
        raise ValueError("gemm: c may overlap an input")
    if m == 0 or n == 0:
        return
    i, f = ctypes.c_int, ctypes.c_double
    _dgemm(
        b"T" if trans_a else b"N", b"T" if trans_b else b"N",
        i(m), i(n), i(k),
        f(alpha), a.ctypes.data, i(lda), b.ctypes.data, i(ldb),
        f(beta), c.ctypes.data, i(ldc),
    )
