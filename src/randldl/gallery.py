"""Symmetric test-matrix families.

Families (all dense, float64, exactly symmetric):

- ``type1``  -- block matrix engineered so partial-pivoting strategies suffer
  exponential element growth: a decaying diagonal coupled to an all-ones
  block, bordered by ``(1 - 1e-8) I``.  Requires even ``n >= 6``.
- ``type2``  -- sparse tridiagonal-plus-corner pattern on which rook-style
  searches scan many columns per pivot.
- ``type3``  -- random Hankel (constant anti-diagonals, Gaussian generator).
- ``type4``  -- discrete sine transform matrix (orthogonal, indefinite).
- ``type5``  -- discrete cosine-like matrix ``cos(i j pi / (n-1))``.
- ``type6``  -- dense symmetric Gaussian: lower triangle i.i.d. N(0,1),
  mirrored.
- ``type7``  -- saddle-point matrix ``[[A1, W], [W^T, 0]]`` with symmetrized
  Gaussian ``A1`` (``n1 x n1``) and Gaussian ``W`` (``n1 x n2``), bordered
  by ``n2 = n // 4`` rows, so ``n1 = n - n // 4``.  Requires ``n >= 4``.
- ``type8``  -- same bordered shape with ``A1 = I``.
- ``type10`` -- singular: ``W diag(lam) W^T`` with geometrically decaying
  negative eigenvalues ``lam_i = q^(1-i) / (1-q)``, ``q = 1 + sqrt(2)``;
  magnitudes below 1e-300 are flushed to exact zeros, so the numerical rank
  stays bounded (about 55) however large ``n`` grows.

Number 9, a family read from files, is not built: ``scipy.io.mmread`` reads
a Matrix Market file, and ``factor`` checks what it returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import hankel

from .core import mirror_lower, require_int
from .pivot import BK_ALPHA

__all__ = [
    "MatrixSpec",
    "generate",
    "FAMILIES",
]

# Dividing this into the decaying type1 diagonal reproduces the sequence of
# pivots that the partial-pivoting growth analysis is tight for.
_GROWTH_Q = 1.0 + 1.0 / BK_ALPHA

# type1 couples its two halves through the block (1 - _EPSILON) I.
_EPSILON = 1e-8


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def _growth_diagonal(count: int) -> np.ndarray:
    """The decaying diagonal ``d_k = q**(1-k) / (1-q)`` of the type1 trap.

    In exact arithmetic every partial-pivoting acceptance test on this
    matrix is an exact tie (``|d_k| * sigma_k == alpha``), and ties resolve
    toward acceptance, which is what drives the exponential growth cascade.
    A plain floating-point evaluation of the formula lands on either side of
    each tie at random and the cascade dies after a few steps.  To make the
    matrix behave in IEEE double precision the way the construction intends,
    each entry is nudged by the minimal number of ulps (at most a few) so
    the tie, evaluated exactly as the elimination will evaluate it, resolves
    toward acceptance.  The entries still equal the formula to ~1e-15
    relative.
    """
    alpha = BK_ALPHA  # the exact float the acceptance tests compare against
    d = np.empty(count)
    v = 1.0  # the ones-block magnitude as the elimination will compute it
    for k in range(count):
        dk = -(alpha * _GROWTH_Q**-k) if k else -alpha
        bumps = 0
        while abs(dk) * v < alpha:
            dk = float(np.nextafter(dk, -np.inf))
            bumps += 1
            if bumps > 4096:  # pragma: no cover - deviation would exceed ~1e-12
                raise AssertionError("type1 tie nudge did not converge")
        d[k] = dk
        v = v - 1.0 / dk  # fl(v - fl(1/d_k)), the multiplier update
    return d


def _type1(n: int) -> np.ndarray:
    if n % 2 != 0 or n < 6:
        raise ValueError(f"type1 requires even n >= 6, got {n}")
    m = n // 2
    a1 = np.ones((m, m))
    a1[: m - 2, : m - 2] = np.diag(_growth_diagonal(m - 2))
    coupling = (1.0 - _EPSILON) * np.eye(m)
    return np.block([[a1, coupling], [coupling, np.zeros((m, m))]])


def _type2(n: int) -> np.ndarray:
    if n < 3:
        raise ValueError(f"type2 requires n >= 3, got {n}")
    a = np.zeros((n, n))
    a[1, 1] = float(n)
    j = np.arange(1, n - 1)
    a[j, j + 1] = (n - j + 1).astype(np.float64)
    a[j + 1, j] = a[j, j + 1]
    a[0, n - 1] = 2.0
    a[n - 1, 0] = 2.0
    return a


def _type3(n: int, seed: int) -> np.ndarray:
    anti = _rng(seed).standard_normal(2 * n - 1)
    return hankel(anti[:n], anti[n - 1 :])


def _type4(n: int) -> np.ndarray:
    idx = np.arange(1, n + 1, dtype=np.float64)
    return np.sqrt(2.0 / (n + 1)) * np.sin(np.outer(idx, idx) * (np.pi / (n + 1)))


def _type5(n: int) -> np.ndarray:
    if n < 2:
        raise ValueError(f"type5 requires n >= 2, got {n}")
    idx = np.arange(n, dtype=np.float64)
    return np.cos(np.outer(idx, idx) * (np.pi / (n - 1)))


def _type6(n: int, seed: int) -> np.ndarray:
    g = _rng(seed).standard_normal((n, n))
    return np.tril(g) + np.tril(g, -1).T


def _bordered(n: int, seed: int, identity_block: bool) -> np.ndarray:
    if n < 4:
        family = "type8" if identity_block else "type7"
        raise ValueError(f"{family} requires n >= 4, got {n}")
    n2 = n // 4
    n1 = n - n2
    gen = _rng(seed)
    if identity_block:
        a1 = np.eye(n1)
    else:
        g = gen.standard_normal((n1, n1))
        a1 = (g + g.T) / math.sqrt(2.0)
    w = gen.standard_normal((n1, n2))
    return np.block([[a1, w], [w.T, np.zeros((n2, n2))]])


def _type10(n: int, seed: int) -> np.ndarray:
    w = _rng(seed).standard_normal((n, n))
    q = 1.0 + math.sqrt(2.0)
    i = np.arange(n, dtype=np.float64)
    with np.errstate(under="ignore"):
        lam = q**-i / (1.0 - q)
    lam[np.abs(lam) < 1e-300] = 0.0
    a = (w * lam) @ w.T
    mirror_lower(a)
    return a


# Each family's builder, called as builder(n, seed).
_BUILDERS = {
    "type1": lambda n, seed: _type1(n),
    "type2": lambda n, seed: _type2(n),
    "type3": _type3,
    "type4": lambda n, seed: _type4(n),
    "type5": lambda n, seed: _type5(n),
    "type6": _type6,
    "type7": lambda n, seed: _bordered(n, seed, identity_block=False),
    "type8": lambda n, seed: _bordered(n, seed, identity_block=True),
    "type10": _type10,
}

FAMILIES = frozenset(_BUILDERS)


@dataclass(frozen=True)
class MatrixSpec:
    """Recipe for one test matrix.

    ``family`` selects the builder; ``n`` its dimension.  ``seed`` feeds the
    random families (3, 6, 7, 8, 10).  A spec is validated once, here:
    ``family`` must name one of ``FAMILIES`` (in any case, stored
    lower-case), ``n`` and ``seed`` must be integers (NumPy's too, stored as
    ``int``), ``n`` positive and ``seed`` non-negative.
    """

    family: str
    n: int
    seed: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.family, str):
            raise ValueError(f"family must be a string, got {self.family!r}")
        if self.family.lower() not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {sorted(FAMILIES)}")
        object.__setattr__(self, "family", self.family.lower())
        for name in ("n", "seed"):
            object.__setattr__(self, name, require_int(getattr(self, name), name))
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


def generate(spec: MatrixSpec) -> np.ndarray:
    """Build the matrix described by ``spec``."""
    return _BUILDERS[spec.family](spec.n, spec.seed)
