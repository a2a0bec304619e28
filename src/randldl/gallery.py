"""Symmetric test-matrix families and Matrix Market I/O.

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
- ``type9``  -- loaded from a Matrix Market file (``path`` required).
- ``type10`` -- singular: ``W diag(lam) W^T`` with geometrically decaying
  negative eigenvalues ``lam_i = q^(1-i) / (1-q)``, ``q = 1 + sqrt(2)``;
  magnitudes below 1e-300 are flushed to exact zeros, so the numerical rank
  stays bounded (about 55) however large ``n`` grows.

Matrix Market support is deliberately narrow: real or integer fields,
``coordinate`` or ``array`` formats, ``symmetric`` storage (lower triangle)
or ``general`` storage that is exactly symmetric.  Everything else --
complex, pattern, skew-symmetric, hermitian data, rectangular shapes,
duplicate coordinate entries, dimensions beyond the cap -- raises
``ValueError`` with a descriptive message.  :func:`save_matrix_market`
writes ``repr`` floats so a save/load round trip reproduces every entry
exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import hankel

from .core import is_exactly_symmetric, mirror_lower
from .pivot import BK_ALPHA

__all__ = [
    "MatrixSpec",
    "generate",
    "FAMILIES",
    "load_matrix_market",
    "save_matrix_market",
    "MAX_FILE_DIM",
]

# Dividing this into the decaying type1 diagonal reproduces the sequence of
# pivots that the partial-pivoting growth analysis is tight for.
_GROWTH_Q = 1.0 + 1.0 / BK_ALPHA

MAX_FILE_DIM = 10000


@dataclass(frozen=True)
class MatrixSpec:
    """Recipe for one test matrix.

    ``family`` selects the builder; ``n`` its dimension.  ``seed`` feeds the
    random families (3, 6, 7, 8, 10).  ``epsilon`` is the type1 coupling
    strength.  ``n2`` overrides the type7/type8 border width (default
    ``n // 4``; ``n1`` is then ``n - n2`` and may be given redundantly as a
    consistency check).  ``path`` points type9 at a Matrix Market file.
    """

    family: str
    n: int = 0
    seed: int = 0
    epsilon: float = 1e-8
    n1: int | None = None
    n2: int | None = None
    path: str | None = None


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
    fam = spec.family.lower()
    if fam not in FAMILIES:
        raise ValueError(f"unknown family {spec.family!r}; expected one of {sorted(FAMILIES)}")
    if fam == "type9":
        if not spec.path:
            raise ValueError("type9 requires a path to a Matrix Market file")
        return load_matrix_market(spec.path)
    n = spec.n
    if n < 1:
        raise ValueError(f"matrix dimension must be positive, got {n}")
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


FAMILIES = frozenset(
    {"type1", "type2", "type3", "type4", "type5", "type6", "type7", "type8", "type9", "type10"}
)


def _parse_header(line: str, path: str) -> tuple[str, str, str]:
    parts = line.strip().lower().split()
    if len(parts) != 5 or parts[0] != "%%matrixmarket" or parts[1] != "matrix":
        raise ValueError(f"{path}: not a Matrix Market matrix header: {line.strip()!r}")
    fmt, field, symmetry = parts[2], parts[3], parts[4]
    if fmt not in ("coordinate", "array"):
        raise ValueError(f"{path}: unsupported format {fmt!r}")
    if field not in ("real", "integer"):
        raise ValueError(f"{path}: unsupported field {field!r} (only real or integer)")
    if symmetry not in ("symmetric", "general"):
        raise ValueError(
            f"{path}: unsupported symmetry {symmetry!r} (only symmetric or general)"
        )
    return fmt, field, symmetry


def _data_lines(lines: list[str], path: str) -> list[str]:
    out = []
    for raw in lines:
        stripped = raw.strip()
        if not stripped or stripped.startswith("%"):
            continue
        out.append(stripped)
    if not out:
        raise ValueError(f"{path}: no size line found")
    return out


def _check_dims(rows: int, cols: int, path: str, max_dim: int) -> None:
    if rows != cols:
        raise ValueError(f"{path}: matrix is {rows}x{cols}, expected square")
    if rows < 1:
        raise ValueError(f"{path}: dimension must be positive, got {rows}")
    if rows > max_dim:
        raise ValueError(f"{path}: dimension {rows} exceeds the cap of {max_dim}")


def load_matrix_market(path: str, max_dim: int = MAX_FILE_DIM) -> np.ndarray:
    """Read a square symmetric real matrix from a Matrix Market file.

    ``symmetric`` storage must hold only the lower triangle and is mirrored;
    ``general`` storage must be exactly symmetric.  Duplicate coordinate
    entries, non-real fields, and dimensions above ``max_dim`` are rejected.
    """
    with open(path, encoding="ascii") as fh:
        lines = fh.readlines()
    if not lines:
        raise ValueError(f"{path}: empty file")
    fmt, _field, symmetry = _parse_header(lines[0], path)
    body = _data_lines(lines[1:], path)
    size_parts = body[0].split()
    entries = body[1:]

    if fmt == "coordinate":
        if len(size_parts) != 3:
            raise ValueError(f"{path}: coordinate size line needs 'rows cols nnz'")
        rows, cols, nnz = (int(tok) for tok in size_parts)
        _check_dims(rows, cols, path, max_dim)
        if len(entries) != nnz:
            raise ValueError(f"{path}: expected {nnz} entries, found {len(entries)}")
        a = np.zeros((rows, rows))
        seen = set()
        for line in entries:
            toks = line.split()
            if len(toks) != 3:
                raise ValueError(f"{path}: bad coordinate entry {line!r}")
            i, j = int(toks[0]) - 1, int(toks[1]) - 1
            v = float(toks[2])
            if not (0 <= i < rows and 0 <= j < rows):
                raise ValueError(f"{path}: entry ({i + 1}, {j + 1}) out of range")
            if (i, j) in seen:
                raise ValueError(f"{path}: duplicate entry at ({i + 1}, {j + 1})")
            seen.add((i, j))
            if symmetry == "symmetric":
                if i < j:
                    raise ValueError(
                        f"{path}: symmetric storage must keep i >= j, got ({i + 1}, {j + 1})"
                    )
                a[i, j] = v
                a[j, i] = v
            else:
                a[i, j] = v
    else:
        if len(size_parts) != 2:
            raise ValueError(f"{path}: array size line needs 'rows cols'")
        rows, cols = (int(tok) for tok in size_parts)
        _check_dims(rows, cols, path, max_dim)
        values = [float(tok) for line in entries for tok in line.split()]
        a = np.zeros((rows, rows))
        if symmetry == "symmetric":
            expected = rows * (rows + 1) // 2
            if len(values) != expected:
                raise ValueError(
                    f"{path}: symmetric array needs {expected} values, found {len(values)}"
                )
            pos = 0
            for j in range(rows):
                for i in range(j, rows):
                    a[i, j] = values[pos]
                    a[j, i] = values[pos]
                    pos += 1
        else:
            if len(values) != rows * rows:
                raise ValueError(
                    f"{path}: general array needs {rows * rows} values, found {len(values)}"
                )
            a = np.array(values).reshape((rows, rows), order="F")

    if symmetry == "general" and not is_exactly_symmetric(a):
        raise ValueError(f"{path}: general matrix is not exactly symmetric")
    return a


def save_matrix_market(a: np.ndarray, path: str) -> None:
    """Write a symmetric matrix as coordinate/real/symmetric Matrix Market.

    Values are written with ``repr`` so loading reproduces them bit for bit.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not is_exactly_symmetric(a):
        raise ValueError("matrix must be exactly symmetric to save as symmetric storage")
    n = a.shape[0]
    ii, jj = np.nonzero(np.tril(a))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("%%MatrixMarket matrix coordinate real symmetric\n")
        fh.write(f"{n} {n} {len(ii)}\n")
        for i, j in zip(ii.tolist(), jj.tolist()):
            fh.write(f"{i + 1} {j + 1} {float(a[i, j])!r}\n")
