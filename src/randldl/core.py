"""Dense symmetric kernels shared by the factorization code.

Conventions used throughout the package:

* A symmetric matrix given to the package is a square ``float64`` ndarray
  whose two triangles hold identical values.
* The factorization keeps only the lower triangle of the block it is still
  eliminating, as LAPACK ``dsytrf`` does: kernels that work on that block
  read and write its lower triangle and leave the strict upper one alone.
  ``mirror_lower`` rebuilds the full matrix where one is needed.
* The factorization's working arrays (the matrix and the panel buffer)
  are column-major, as in LAPACK, so a column is contiguous and a row is
  strided.  ``L`` is written over the matrix's eliminated columns, as in
  ``dsytrf``, so one n x n buffer holds both.  Kernels take any layout;
  ``sym_swap`` reads one row segment, the rest are columns.  The rows of
  finished columns of ``L`` are not swapped step by step: each closed
  block of them is permuted by one gather after the last step, as it is
  moved to the front of the buffer.
* A permutation is a 1-D integer ndarray ``perm`` of length n containing
  each index exactly once.  Applied symmetrically it relabels the matrix as
  ``A[perm][:, perm]``.
* Every level-3 product of the factorization runs on SciPy's BLAS, through
  one ``dgemm`` entry, in place, through the leading dimensions, as LAPACK
  ``dlasyf`` updates its trailing block.  A column-major buffer is checked
  once, when it is bound as a ``Buffer``, and ``require_disjoint`` checks
  that no two bound buffers overlap; ``dgemm`` then takes blocks of bound
  buffers by offset and checks only, in plain ints, that each block lies
  inside its buffer and that the output is writeable and shares no entry
  with an input.  NumPy and SciPy each load their own OpenBLAS with
  its own thread pool; large products on both make one pool's idle
  workers spin while the other's run.
* The kernels that ``factor`` and ``solve`` share are written once, here:
  a 2x2 pivot block's determinant and adjugate solve (``det_2x2``,
  ``solve_2x2``), and the unit-lower triangular solve
  (``solve_triangular``), which also runs the q = b sketch correction.
"""

from __future__ import annotations

import ctypes
import math
import numbers

import numpy as np
from scipy.linalg import cython_blas
from scipy.linalg.blas import dtrsm, dtrsv

__all__ = [
    "require_int",
    "require_real",
    "require_square",
    "require_finite",
    "require_symmetric",
    "is_exactly_symmetric",
    "exchange",
    "sym_swap",
    "mirror_lower",
    "column_norms",
    "det_2x2",
    "solve_2x2",
    "solve_triangular",
    "Buffer",
    "require_disjoint",
    "dgemm",
]


def require_int(value, name: str) -> int:
    """``value`` (NumPy's integers too) as an ``int``; a bool or non-integer raises by name."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def require_real(a, name: str) -> np.ndarray:
    """``a`` as float64; complex input raises ``ValueError`` by name.

    The cast would drop an imaginary part with only a ``ComplexWarning``.
    The check reads the dtype alone, so it costs the same at any size.
    """
    a = np.asarray(a)
    if a.dtype.kind == "c":
        raise ValueError(f"{name} must be real, got complex input")
    return a.astype(np.float64, copy=False)


def require_square(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Validate that ``a`` is a 2-D square real array and return it as float64."""
    a = require_real(a, name)
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


def column_norms(m: np.ndarray) -> np.ndarray:
    """Euclidean norms of the columns of ``m``.

    The squares are summed as the entries stand.  If the largest sum
    overflowed or lies near the subnormal range, they are summed again at
    the power of two that brings the block's largest magnitude into
    [0.5, 1), so no column overflows.  Either way the norms of ``2**e * m``
    are ``2**e`` times those of ``m``, up to squares lost to underflow far
    below the largest, and the largest column is the same one.
    """
    m = require_real(m, "m")
    if m.ndim != 2:
        raise ValueError("column_norms expects a 2-D array")
    if m.size == 0:
        return np.zeros(m.shape[1])
    sums = _sums_of_squares(m)
    if _TINY_SUM <= sums[sums.argmax()] < math.inf:
        return np.sqrt(sums, out=sums)
    top = float(np.abs(m).max())
    if top == 0.0 or not math.isfinite(top):
        return np.sqrt(sums, out=sums)
    e = math.frexp(top)[1]
    # A column whose norm exceeds the largest double is inf, as its sum was.
    with np.errstate(over="ignore"):
        return np.ldexp(np.sqrt(_sums_of_squares(np.ldexp(m, -e))), e)


def _sums_of_squares(block: np.ndarray) -> np.ndarray:
    """Each column's sum of squares, accumulated from the first row down.

    einsum runs over rows of unit stride, adding one row's squares to all
    the sums at once; on a short block, such as the sketch, that beats
    summing each column on its own.  A block whose rows are strided, such
    as a column-major one, is copied to C order first; the sums are the
    same bits either way.  Unlike a ufunc, einsum does not warn when a
    square overflows, which column_norms handles itself.
    """
    sq = block if block.strides[1] == 8 else np.ascontiguousarray(block)
    return np.einsum("ij,ij->j", sq, sq)


def det_2x2(d11, d21, d22):
    """``d11*d22 - d21*d21``, rounded as written, for floats or arrays of blocks."""
    return d11 * d22 - d21 * d21


def solve_2x2(d11, d21, d22, det, z1, z2, out1, out2) -> None:
    """Solve ``[[d11, d21], [d21, d22]] [w1; w2] = [z1; z2]`` by the adjugate.

    Writes ``(d22*z1 - d21*z2) / det`` into ``out1`` and ``(d11*z2 -
    d21*z1) / det`` into ``out2``, each rounded as written, ``det`` being
    :func:`det_2x2`'s.  The entries broadcast against ``z1``; the outputs
    must not share memory with ``z1`` or ``z2``.
    """
    np.multiply(z1, d22, out=out1)
    np.multiply(z2, d11, out=out2)
    out1 -= d21 * z2
    out2 -= d21 * z1
    out1 /= det
    out2 /= det


def solve_triangular(l: np.ndarray, y: np.ndarray, trans: int) -> np.ndarray:
    """``l^-1 y`` (``trans=0``) or ``l^-T y`` (``trans=1``) for unit lower ``l``.

    BLAS ``dtrsv`` for one right-hand side, ``dtrsm`` for many; ``l``'s
    diagonal and upper triangle are not read.  Overwrites ``y`` where BLAS
    can, so ``y`` must never be the caller's array.
    """
    if y.ndim == 1:
        return dtrsv(l, y, lower=1, trans=trans, diag=1, overwrite_x=1)
    return dtrsm(1.0, l, y, lower=1, trans_a=trans, diag=1, overwrite_b=1)


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


class Buffer:
    """A float64 column-major array, checked once for ``dgemm``.

    Binding checks the layout (unit row stride, a column stride of at least
    the row count, handed to BLAS as the leading dimension, and dimensions
    that fit a C int) and keeps the array, its shape, leading dimension (also
    as the C int BLAS reads), data pointer and writeability; the array is
    kept so its memory outlives the pointer.  A block is then handed to
    ``dgemm`` as ``(buffer, i, j)``, its first entry's row and column.
    """

    __slots__ = ("array", "rows", "cols", "ld", "ld_c", "ptr", "writeable")

    def __init__(self, array: np.ndarray, name: str = "buffer") -> None:
        if not isinstance(array, np.ndarray) or array.ndim != 2 or array.dtype != np.float64:
            raise ValueError(f"dgemm: {name} must be a 2-D float64 ndarray")
        (rows, cols), (s0, s1) = array.shape, array.strides
        ld = s1 // 8 if cols > 1 else rows
        if (rows > 1 and s0 != 8) or (cols > 1 and (s1 % 8 or ld < rows)):
            raise ValueError(f"dgemm: {name} is not a column-major view (strides {s0, s1})")
        if max(rows, cols, ld) > _INT_MAX:
            raise ValueError(f"dgemm: {name} has a dimension beyond a C int")
        self.array, self.rows, self.cols, self.ld = array, rows, cols, max(ld, 1)
        self.ld_c = ctypes.c_int(self.ld)
        self.ptr, self.writeable = array.ctypes.data, array.flags.writeable


def require_disjoint(*buffers: Buffer) -> None:
    """``ValueError`` if two of the bound buffers may share memory."""
    for i, x in enumerate(buffers):
        for y in buffers[:i]:
            if np.may_share_memory(x.array, y.array):
                raise ValueError("dgemm: bound buffers overlap")


# A block of a bound buffer: the buffer, then its first entry's row and column.
Block = tuple[Buffer, int, int]


def dgemm(
    m: int,
    n: int,
    k: int,
    alpha: float,
    a: Block,
    b: Block,
    beta: float,
    c: Block,
    trans_a: bool = False,
    trans_b: bool = False,
) -> None:
    """``C = alpha * op(A) @ op(B) + beta * C`` in place on blocks of bound buffers.

    Each operand is a block ``(buffer, i, j)`` of a :class:`Buffer`: ``C``
    is its ``m x n`` block at ``(i, j)``, ``op(A)`` is ``m x k`` and
    ``op(B)`` is ``k x n``, where ``op(x)`` is ``x.T`` if its ``trans_``
    flag is set, else ``x``.  Every call checks, in plain ints, that ``C``'s
    buffer is writeable, that every block lies inside its buffer, and that
    ``C``'s block shares no entry with an input block of the same buffer
    (bound buffers do not overlap: see :func:`require_disjoint`).  So no
    pointer outside a buffer and no aliased output reaches BLAS; any failure
    raises ``ValueError`` before BLAS runs.  With ``beta = 0`` the old
    values of ``C`` are not read.
    """
    (abuf, ai, aj), (bbuf, bi, bj), (cbuf, ci, cj) = a, b, c
    ar, ac = (k, m) if trans_a else (m, k)
    br, bc = (n, k) if trans_b else (k, n)
    if not cbuf.writeable:
        raise ValueError("dgemm: c is read-only")
    if (
        min(m, n, k, ai, aj, bi, bj, ci, cj) < 0
        or ai + ar > abuf.rows or aj + ac > abuf.cols
        or bi + br > bbuf.rows or bj + bc > bbuf.cols
        or ci + m > cbuf.rows or cj + n > cbuf.cols
    ):
        raise ValueError(f"dgemm: a block of the {m} x {n} x {k} product lies outside its buffer")
    if m == 0 or n == 0:
        return
    # Two blocks of one column-major buffer share no entry when their rows
    # or their columns are apart.
    if (
        cbuf is abuf and ci < ai + ar and ai < ci + m and cj < aj + ac and aj < cj + n
    ) or (
        cbuf is bbuf and ci < bi + br and bi < ci + m and cj < bj + bc and bj < cj + n
    ):
        raise ValueError("dgemm: c overlaps an input block")
    i, f = ctypes.c_int, ctypes.c_double
    _dgemm(
        b"T" if trans_a else b"N", b"T" if trans_b else b"N",
        i(m), i(n), i(k),
        f(alpha), abuf.ptr + 8 * (ai + aj * abuf.ld), abuf.ld_c,
        bbuf.ptr + 8 * (bi + bj * bbuf.ld), bbuf.ld_c,
        f(beta), cbuf.ptr + 8 * (ci + cj * cbuf.ld), cbuf.ld_c,
    )
