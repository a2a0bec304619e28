"""Solves against a computed block LDL^T factorization, as LAPACK ``dsytrs`` does.

Permute the right-hand side, forward-substitute through the unit lower
triangle by BLAS ``dtrsv`` (one right-hand side) or ``dtrsm`` (many), solve
the block diagonal, back-substitute through the transpose, and un-permute.
The block-diagonal solve divides every row by a cached 1x1 pivot, then
rewrites the rows of 2x2 blocks by the explicit adjugate through cached row
indices.  Both kernels, ``solve_triangular`` and ``solve_2x2``, are
``core``'s, which ``factor`` runs too.  Exactly-zero 1x1 blocks and
exactly-singular 2x2 blocks set the ``singular`` flag and zero the
corresponding solution components; no epsilon test is applied to merely
ill-conditioned blocks (a rank-revealing factorization has already zeroed
negligible trailing blocks).

The factorization is checked once, when it is built: ``L`` must be finite
and ``perm`` a permutation, both are then read-only, and ``D`` is frozen
with its block arrays derived.  Each solve therefore checks only its
right-hand side (complex input, a NaN or an Inf raises ``ValueError``) and
runs the two triangular solves unchecked, in arrays it made itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import require_real, solve_2x2, solve_triangular
from .factor import BlockDiag, Factorization
from .metrics import backward_error

__all__ = ["SolveReport", "solve", "solve_many", "block_diag_solve"]


@dataclass
class SolveReport:
    """Solution vector plus flags from one solve."""

    x: np.ndarray
    singular: bool
    backward_error: float | None = None


def block_diag_solve(d: BlockDiag, z: np.ndarray) -> tuple[np.ndarray, bool]:
    """Solve ``D w = z`` blockwise; ``z`` may be a vector or a matrix of columns.

    Returns ``(w, singular)``, with ``w`` a new array.  Every row is divided
    by its cached 1x1 pivot (1 on the other rows); the rows of nonsingular
    2x2 blocks are then overwritten by the adjugate formulas, and the rows
    of singular blocks (exact zeros only) are zeroed instead of raising.
    Complex ``z`` raises ``ValueError``.
    """
    z = require_real(z, "z")
    if d.dim != z.shape[0]:
        raise ValueError(f"block diagonal covers {d.dim} rows, expected {z.shape[0]}")
    vector = z.ndim == 1
    w = z / (d.den if vector else d.den[:, None])
    i = d.pair_rows
    if i.size:
        d11, d21, d22, det = d.pair if vector else d.pair[:, :, None]
        z1, z2 = w[i], w[i + 1]  # z itself: a 2x2 block's rows have den = 1
        out = np.empty((2, *z1.shape))
        solve_2x2(d11, d21, d22, det, z1, z2, out[0], out[1])
        w[i], w[i + 1] = out
    if d.zero_rows.size:
        w[d.zero_rows] = 0.0
    return w, bool(d.zero_rows.size)


def _substitute(f: Factorization, rhs: np.ndarray) -> tuple[np.ndarray, bool]:
    if not np.isfinite(rhs).all():
        raise ValueError("right-hand side contains NaN or Inf")
    z = solve_triangular(f.L, rhs[f.perm], 0)  # the gather is a new array
    w, singular = block_diag_solve(f.D, z)
    v = solve_triangular(f.L, w, 1)
    if v.ndim == 1:
        # One right-hand side: the scatter skips forming the inverse
        # permutation that the gather below needs, about 1.5 % of a solve
        # at n = 2048.
        x = np.empty_like(v)
        x[f.perm] = v
        return x, singular
    # x[perm] = v, gathered along the rows of v.T, its contiguous axis, by
    # the inverse permutation: scattering rows into the column-major x
    # strides across every column.  x is column-major, as v is.
    inv = np.empty_like(f.perm)
    inv[f.perm] = np.arange(f.n)
    return np.take(v.T, inv, axis=1).T, singular


def solve(f: Factorization, b: np.ndarray, a: np.ndarray | None = None) -> SolveReport:
    """Solve ``A x = b`` given ``factor(A)``.

    When the original matrix ``a`` is supplied, the report carries the
    relative backward error ``|A x - b|_inf / (|A|_inf |x|_inf)``.
    """
    b = require_real(b, "right-hand side")
    if b.shape != (f.n,):
        raise ValueError(f"right-hand side shape {b.shape} does not match n={f.n}")
    x, singular = _substitute(f, b)
    err = None
    if a is not None:
        err = backward_error(a, x, b)
    return SolveReport(x=x, singular=singular, backward_error=err)


def solve_many(f: Factorization, b_rhs: np.ndarray) -> np.ndarray:
    """Column-wise :func:`solve`; returns the matrix of solutions.

    Singular blocks zero the affected components in every column (same
    convention as :func:`solve`, without the per-column flag).
    """
    b_rhs = require_real(b_rhs, "right-hand sides")
    if b_rhs.ndim != 2 or b_rhs.shape[0] != f.n:
        raise ValueError(
            f"right-hand sides must be ({f.n}, k), got {b_rhs.shape}"
        )
    x, _ = _substitute(f, b_rhs)
    return x
