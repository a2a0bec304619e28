"""Stability metrics: growth factors, norms, sketch sizes, backward error."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular

from .core import column_norms, require_square

__all__ = [
    "OpCounters",
    "GrowthStats",
    "norm_1_inf",
    "norm_1_2",
    "norm_1",
    "linv_norm1",
    "growth_from_snapshots",
    "jl_required_p",
    "backward_error",
]


@dataclass
class OpCounters:
    """Tallies of the dominant operations performed by a factorization.

    The counts follow the per-step cost model of the algorithms (pivot-search
    comparisons, multiplier divisions, Schur-update multiply/adds, sketch
    work), not the instruction stream of the BLAS kernels that execute them.
    """

    mults: int = 0
    adds: int = 0
    divs: int = 0
    comps: int = 0

    def total_flops(self) -> int:
        return self.mults + self.adds + self.divs


@dataclass
class GrowthStats:
    """Growth and cost diagnostics attached to a factorization.

    ``rho_cheap`` is always available: the max-magnitude entry of the block
    diagonal over the max-magnitude entry of the input.  The elementwise and
    columnwise growth factors require per-step snapshots of the active Schur
    complement and are filled only when full tracking was requested.
    """

    rho_cheap: float
    max_multiplier: float
    counters: OpCounters = field(default_factory=OpCounters)
    rho_elem: float | None = None
    rho_col: float | None = None
    L_norm1: float | None = None
    Linv_norm1: float | None = None
    snapshots: list[tuple[float, float]] | None = None
    sketch_drift: list[float] | None = None
    recompute_count: int = 0


def norm_1_inf(a: np.ndarray) -> float:
    """Max-magnitude entry of ``a``."""
    a = np.asarray(a, dtype=np.float64)
    return float(np.abs(a).max()) if a.size else 0.0


def norm_1_2(a: np.ndarray) -> float:
    """Largest Euclidean column norm of ``a``."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.size == 0:
        return 0.0
    return float(column_norms(a).max())


def norm_1(a: np.ndarray) -> float:
    """Induced 1-norm: largest absolute column sum."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.size == 0:
        return 0.0
    return float(np.abs(a).sum(axis=0).max())


def linv_norm1(l: np.ndarray) -> float:
    """1-norm of the inverse of a unit lower-triangular matrix.

    Solves against the n columns of the identity, which is exactly n
    unit-vector forward substitutions.
    """
    l = require_square(l, "L")
    inv = solve_triangular(l, np.eye(l.shape[0]), lower=True, unit_diagonal=True)
    return norm_1(inv)


def growth_from_snapshots(snapshots: list[tuple[float, float]]) -> tuple[float, float]:
    """Growth factors from per-step Schur-complement snapshots.

    Each snapshot is ``(max_abs_entry, max_column_norm)`` of one active
    Schur complement, the first being the input matrix itself.  Returns
    ``(rho_elem, rho_col)``: the max over steps of each quantity divided by
    its value at step zero.
    """
    if not snapshots:
        raise ValueError("need at least one snapshot")
    elems = np.array([s[0] for s in snapshots], dtype=np.float64)
    cols = np.array([s[1] for s in snapshots], dtype=np.float64)
    if elems[0] == 0.0 or cols[0] == 0.0:
        raise ValueError("snapshot of the input matrix is zero; growth undefined")
    return float(elems.max() / elems[0]), float(cols.max() / cols[0])


def jl_required_p(n: int, epsilon: float, delta: float) -> int:
    """Smallest sketch size preserving all n(n+1)/2 pair norms.

    Smallest integer p with ``p >= 4 / (eps^2 - eps^3) * ln(n(n+1)/delta)``,
    which makes a p-row Gaussian sketch an epsilon-isometry on the pairwise
    differences of n vectors with failure probability at most delta.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not (0.0 < epsilon < 1.0):
        raise ValueError("epsilon must lie in (0, 1)")
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")
    bound = 4.0 / (epsilon**2 - epsilon**3) * math.log(n * (n + 1) / delta)
    return max(1, math.ceil(bound))


def backward_error(a: np.ndarray, x: np.ndarray, b: np.ndarray) -> float:
    """Normwise relative residual ``|Ax - b|_inf / (|A|_inf |x|_inf)``.

    ``|A|_inf`` is the induced infinity norm (largest absolute row sum).
    A zero solution vector gives 0.0 when the residual is also zero and
    ``inf`` otherwise.
    """
    a = require_square(a, "A")
    x = np.asarray(x, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    resid = float(np.abs(a @ x - b).max())
    a_inf = float(np.abs(a).sum(axis=1).max())
    x_inf = float(np.abs(x).max()) if x.size else 0.0
    denom = a_inf * x_inf
    if denom == 0.0:
        return 0.0 if resid == 0.0 else math.inf
    return resid / denom
