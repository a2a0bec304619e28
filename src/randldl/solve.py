"""Solves against a computed block LDL^T factorization.

The pipeline is: permute the right-hand side, forward-substitute through the
unit lower triangle, solve the block diagonal (1x1 and 2x2 blocks, the 2x2
case by explicit adjugate), back-substitute through the transpose, and
un-permute.  Exactly-zero 1x1 blocks and exactly-singular 2x2 blocks set the
``singular`` flag and zero the corresponding solution components; no epsilon
test is applied to merely ill-conditioned blocks (a rank-revealing
factorization has already zeroed negligible trailing blocks).

The factorization is checked once, when it is built: ``L`` must be finite
and is then read-only, and ``D`` is frozen with its block arrays derived.
Each solve therefore checks only its right-hand side (a NaN or Inf raises
``ValueError``) and runs the two triangular solves unchecked, as LAPACK
``dsytrs`` does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

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

    Returns ``(w, singular)``.  Singular blocks (exact zeros only) contribute
    zero components instead of raising.  All blocks of one size are solved
    together from the arrays ``d`` derived at construction.
    """
    w = np.array(z, dtype=np.float64, copy=True)
    if d.dim != w.shape[0]:
        raise ValueError(f"block diagonal covers {d.dim} rows, expected {w.shape[0]}")
    rows = w[:, None] if w.ndim == 1 else w  # a view: one column per right-hand side
    ok1 = d.d1 != 0.0
    i = d.starts1[ok1]
    rows[i] /= d.d1[ok1, None]
    ok2 = d.det != 0.0
    i = d.starts2[ok2]
    d11, d21, d22, det = (x[ok2, None] for x in (d.d11, d.d21, d.d22, d.det))
    z1, z2 = rows[i], rows[i + 1]
    rows[i] = (d22 * z1 - d21 * z2) / det
    rows[i + 1] = (d11 * z2 - d21 * z1) / det
    s2 = d.starts2[~ok2]
    zero = np.concatenate((d.starts1[~ok1], s2, s2 + 1))
    rows[zero] = 0.0
    return w, bool(zero.size)


def _substitute(f: Factorization, rhs: np.ndarray) -> tuple[np.ndarray, bool]:
    if not np.isfinite(rhs).all():
        raise ValueError("right-hand side contains NaN or Inf")
    y = rhs[f.perm]
    z = solve_triangular(f.L, y, lower=True, unit_diagonal=True, check_finite=False)
    w, singular = block_diag_solve(f.D, z)
    v = solve_triangular(f.L, w, lower=True, unit_diagonal=True, trans="T", check_finite=False)
    x = np.empty_like(v)
    x[f.perm] = v
    return x, singular


def solve(f: Factorization, b: np.ndarray, a: np.ndarray | None = None) -> SolveReport:
    """Solve ``A x = b`` given ``factor(A)``.

    When the original matrix ``a`` is supplied, the report carries the
    relative backward error ``|A x - b|_inf / (|A|_inf |x|_inf)``.
    """
    b = np.asarray(b, dtype=np.float64)
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
    b_rhs = np.asarray(b_rhs, dtype=np.float64)
    if b_rhs.ndim != 2 or b_rhs.shape[0] != f.n:
        raise ValueError(
            f"right-hand sides must be ({f.n}, k), got {b_rhs.shape}"
        )
    x, _ = _substitute(f, b_rhs)
    return x
