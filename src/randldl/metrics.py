"""Stability metrics: growth factors, norms, sketch sizes, backward error."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .core import column_norms, require_int, require_real, require_square

if TYPE_CHECKING:
    from .factor import Factorization

__all__ = [
    "OpCounters",
    "GrowthStats",
    "norm_1_inf",
    "norm_1_2",
    "schur_snapshots",
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

    ``rho_cheap`` is the max-magnitude entry of the block diagonal over the
    max-magnitude entry of the input.  The elementwise and columnwise growth
    factors are not kept here: they are a function of the input and the
    factors, ``growth_from_snapshots(schur_snapshots(a, f))``.
    """

    rho_cheap: float
    max_multiplier: float
    counters: OpCounters = field(default_factory=OpCounters)
    sketch_drift: list[float] | None = None
    recompute_count: int = 0


def norm_1_inf(a: np.ndarray) -> float:
    """Max-magnitude entry of ``a``; complex input raises ``ValueError``."""
    a = require_real(a, "a")
    return float(np.abs(a).max()) if a.size else 0.0


def norm_1_2(a: np.ndarray) -> float:
    """Largest Euclidean column norm of ``a``; complex input raises ``ValueError``."""
    a = require_real(a, "a")
    if a.ndim != 2 or a.size == 0:
        return 0.0
    return float(column_norms(a).max())


def schur_snapshots(a: np.ndarray, f: Factorization) -> list[tuple[float, float]]:
    """``(max |S|, largest column norm of S)`` of each Schur complement S of ``f``.

    Replays a right-looking elimination of ``a`` along ``f``'s pivots: S
    starts as a copy of ``a[perm][:, perm]``, and the pivot block of size s
    at k turns it, in place, into ``S[s:, s:] - L[k+s:, k:k+s] @ S[:s, s:]``.
    One entry is recorded before each block, the input's first; a deficient
    tail is recorded once, and the replay stops there.  The replay costs
    O(n^3) flops in NumPy, more than the factorization did.
    """
    a = require_square(a, "A")
    if a.shape[0] != f.n:
        raise ValueError(f"A is {a.shape[0]} x {a.shape[0]}, but f is {f.n} x {f.n}")
    s = a[np.ix_(f.perm, f.perm)]
    stop = f.deficient_from
    out = []
    k = 0
    for block in f.D.blocks:
        out.append((norm_1_inf(s), norm_1_2(s)))
        if k == stop:
            break
        z = block.shape[0]
        s[z:, z:] -= f.L[k + z :, k : k + z] @ s[:z, z:]
        s = s[z:, z:]
        k += z
    return out


def growth_from_snapshots(snapshots: list[tuple[float, float]]) -> tuple[float, float]:
    """Growth factors from per-step Schur-complement snapshots (see ``schur_snapshots``).

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
    n = require_int(n, "n")
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
    x = require_real(x, "x")
    b = require_real(b, "b")
    n = a.shape[0]
    for name, v in (("x", x), ("b", b)):
        if v.shape[:1] != (n,):
            raise ValueError(f"A is {n} x {n}, but {name} has shape {v.shape}")
    resid = float(np.abs(a @ x - b).max())
    a_inf = float(np.abs(a).sum(axis=1).max())
    x_inf = float(np.abs(x).max()) if x.size else 0.0
    denom = a_inf * x_inf
    if denom == 0.0:
        return 0.0 if resid == 0.0 else math.inf
    return resid / denom
