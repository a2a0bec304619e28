"""Symmetric test-matrix families.

Families (all dense, float64, exactly symmetric):

- ``type1``  -- block matrix engineered so partial-pivoting strategies suffer
  exponential element growth: a decaying diagonal coupled to an all-ones
  block, bordered by ``(1 - epsilon) I``.  Requires even ``n >= 6``.
- ``type2``  -- sparse tridiagonal-plus-corner pattern on which rook-style
  searches scan many columns per pivot.
- ``type3``  -- random Hankel (constant anti-diagonals, Gaussian generator).
- ``type4``  -- discrete sine transform matrix (orthogonal, indefinite).
- ``type5``  -- discrete cosine-like matrix ``cos(i j pi / (n-1))``.
- ``type6``  -- dense symmetric Gaussian: lower triangle i.i.d. N(0,1),
  mirrored.
- ``type7``  -- saddle-point matrix ``[[A1, W], [W^T, 0]]`` with symmetrized
  Gaussian ``A1`` (``n1 x n1``) and Gaussian ``W`` (``n1 x n2``).
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
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.linalg import hankel

from .core import mirror_lower
from .pivot import BK_ALPHA

__all__ = [
    "MatrixSpec",
    "generate",
    "FAMILIES",
]

# Dividing this into the decaying type1 diagonal reproduces the sequence of
# pivots that the partial-pivoting growth analysis is tight for.
_GROWTH_Q = 1.0 + 1.0 / BK_ALPHA

FAMILIES = frozenset(
    {"type1", "type2", "type3", "type4", "type5", "type6", "type7", "type8", "type10"}
)


@dataclass(frozen=True)
class MatrixSpec:
    """Recipe for one test matrix.

    ``family`` selects the builder; ``n`` its dimension.  ``seed`` feeds the
    random families (3, 6, 7, 8, 10).  ``epsilon`` is the type1 coupling
    strength.  ``n2`` overrides the type7/type8 border width (default
    ``n // 4``; ``n1`` is then ``n - n2`` and may be given redundantly as a
    consistency check).  A spec is validated once, here: ``family`` must
    name one of ``FAMILIES`` (in any case, stored lower-case), ``epsilon``
    must be a finite real (stored as ``float``), ``n``, ``seed`` and any
    ``n1``, ``n2`` given must be integers (NumPy's too, stored as ``int``),
    ``n`` positive and ``seed`` non-negative.
    """

    family: str
    n: int
    seed: int = 0
    epsilon: float = 1e-8
    n1: int | None = None
    n2: int | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.family, str):
            raise ValueError(f"family must be a string, got {self.family!r}")
        if self.family.lower() not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {sorted(FAMILIES)}")
        object.__setattr__(self, "family", self.family.lower())
        eps = self.epsilon
        if isinstance(eps, bool) or not isinstance(eps, numbers.Real) or not math.isfinite(eps):
            raise ValueError(f"epsilon must be a finite real, got {eps!r}")
        object.__setattr__(self, "epsilon", float(eps))
        for name in ("n", "seed", "n1", "n2"):
            value = getattr(self, name)
            if value is None and name in ("n1", "n2"):
                continue
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


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


def _type1(n: int, epsilon: float) -> np.ndarray:
    if n % 2 != 0 or n < 6:
        raise ValueError(f"type1 requires even n >= 6, got {n}")
    m = n // 2
    a1 = np.zeros((m, m))
    a1[np.arange(m - 2), np.arange(m - 2)] = _growth_diagonal(m - 2)
    a1[:, m - 2 :] = 1.0
    a1[m - 2 :, :] = 1.0
    a = np.zeros((n, n))
    a[:m, :m] = a1
    coupling = (1.0 - epsilon) * np.eye(m)
    a[:m, m:] = coupling
    a[m:, :m] = coupling
    return a


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
    gen = _rng(seed)
    anti = gen.standard_normal(2 * n - 1)
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
    gen = _rng(seed)
    g = gen.standard_normal((n, n))
    return np.tril(g) + np.tril(g, -1).T


def _split_border(n: int, n1: int | None, n2: int | None) -> tuple[int, int]:
    if n2 is None:
        n2 = n - n1 if n1 is not None else n // 4
    if n1 is None:
        n1 = n - n2
    if n1 + n2 != n:
        raise ValueError(f"n1 + n2 must equal n: {n1} + {n2} != {n}")
    if n1 < 1 or n2 < 1:
        raise ValueError(f"border split needs n1 >= 1 and n2 >= 1, got {n1}, {n2}")
    return n1, n2


def _bordered(n: int, seed: int, n1: int | None, n2: int | None, identity_block: bool) -> np.ndarray:
    n1, n2 = _split_border(n, n1, n2)
    gen = _rng(seed)
    if identity_block:
        a1 = np.eye(n1)
    else:
        g = gen.standard_normal((n1, n1))
        a1 = (g + g.T) / math.sqrt(2.0)
    w = gen.standard_normal((n1, n2))
    a = np.zeros((n, n))
    a[:n1, :n1] = a1
    a[:n1, n1:] = w
    a[n1:, :n1] = w.T
    return a


def _type10(n: int, seed: int) -> np.ndarray:
    gen = _rng(seed)
    w = gen.standard_normal((n, n))
    q = 1.0 + math.sqrt(2.0)
    i = np.arange(n, dtype=np.float64)
    with np.errstate(under="ignore"):
        lam = q**-i / (1.0 - q)
    lam[np.abs(lam) < 1e-300] = 0.0
    a = (w * lam) @ w.T
    mirror_lower(a)
    return a


def generate(spec: MatrixSpec) -> np.ndarray:
    """Build the matrix described by ``spec``."""
    fam = spec.family
    n = spec.n
    if fam == "type1":
        return _type1(n, spec.epsilon)
    if fam == "type2":
        return _type2(n)
    if fam == "type3":
        return _type3(n, spec.seed)
    if fam == "type4":
        return _type4(n)
    if fam == "type5":
        return _type5(n)
    if fam == "type6":
        return _type6(n, spec.seed)
    if fam == "type7":
        return _bordered(n, spec.seed, spec.n1, spec.n2, identity_block=False)
    if fam == "type8":
        return _bordered(n, spec.seed, spec.n1, spec.n2, identity_block=True)
    return _type10(n, spec.seed)

