"""Pivot selection rules for symmetric indefinite elimination.

Three rules are provided.  Each reads the leading column of the active Schur
complement (``a_kk`` and the magnitudes ``sub`` below it), fetches further
columns or diagonal entries through a callback, and returns a
:class:`PivotDecision`:

* ``_sbkp_from_data``: simplified partial pivoting with threshold alpha =
  sqrt(2)/2.  Used together with a column-norm pre-pivot; its 2x2 blocks
  have determinant at least ``(1 - alpha^2) * lambda^2`` in magnitude.
* ``_bkpp_from_data``: classic partial pivoting with alpha = (1 + sqrt(17))/8.
  Fast, but multipliers are unbounded on adversarial inputs.
* ``_bbk_from_data``: bounded (rook) pivoting.  Alternates row and column
  scans until the tested diagonal dominates its row, which bounds multipliers
  by 1/alpha for 1x1 pivots and 1/(1 - alpha) for 2x2 pivots at the cost of
  a potentially quadratic search per step.

The rules never modify the matrix; they only read it and increment the
comparison counter by the length of each max scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .metrics import OpCounters

__all__ = [
    "PivotKind",
    "PivotDecision",
    "SBKP_ALPHA",
    "BK_ALPHA",
]

#: Threshold for the simplified rule; maximizes the 2x2 determinant bound.
SBKP_ALPHA = math.sqrt(2.0) / 2.0

#: Classic Bunch-Kaufman threshold; equalizes 1x1 and 2x2 growth per step.
BK_ALPHA = (1.0 + math.sqrt(17.0)) / 8.0


class PivotKind(Enum):
    SKIP = "skip"
    ONE_BY_ONE = "1x1"
    ONE_BY_ONE_SWAP_R = "1x1-swap"
    TWO_BY_TWO = "2x2"


@dataclass(frozen=True)
class PivotDecision:
    """Outcome of one pivot search.

    ``s`` is the block size (1 or 2); ``r`` the secondary index for swap and
    2x2 cases.  ``p`` is set only by the rook search when the 2x2 block pairs
    two rows that both differ from the leading position: the caller swaps
    ``p`` to position k before swapping ``r`` to position k+1.
    """

    kind: PivotKind
    s: int
    r: int | None = None
    p: int | None = None


# ``column_at(j)`` returns column j of the active Schur complement from row k
# down; ``diag_at(j)`` returns its diagonal entry j.
ColumnProvider = Callable[[int], np.ndarray]
DiagProvider = Callable[[int], float]


def _scan_max(values: np.ndarray, counters: OpCounters) -> tuple[float, int]:
    """Max magnitude and its first index; counts the scan's comparisons."""
    counters.comps += max(values.size - 1, 0)
    j = int(values.argmax())
    return float(values[j]), j


def _scan_max_off(values: np.ndarray, d: int, counters: OpCounters) -> tuple[float, int]:
    """Like ``_scan_max`` over every entry but ``values[d]`` (needs size >= 2).

    ``values[d]`` is set to -inf for the scan and restored afterwards, which
    finds the same value and index as scanning a copy without it but builds
    no mask; the count is still that of the shorter scan.
    """
    counters.comps += max(values.size - 2, 0)
    saved = values[d]
    values[d] = -np.inf
    j = int(values.argmax())
    values[d] = saved
    return float(values[j]), j


def _sbkp_from_data(
    a_kk: float,
    sub: np.ndarray,
    diag_at: DiagProvider,
    k: int,
    alpha: float,
    counters: OpCounters,
) -> PivotDecision:
    lam, j = _scan_max(sub, counters) if sub.size else (0.0, 0)
    if sub.size == 0 or lam == 0.0:
        return PivotDecision(PivotKind.SKIP, s=1)
    r = k + 1 + j
    if abs(a_kk) >= alpha * lam:
        return PivotDecision(PivotKind.ONE_BY_ONE, s=1)
    if abs(diag_at(r)) >= alpha * lam:
        return PivotDecision(PivotKind.ONE_BY_ONE_SWAP_R, s=1, r=r)
    return PivotDecision(PivotKind.TWO_BY_TWO, s=2, r=r)


def _bkpp_from_data(
    a_kk: float,
    sub: np.ndarray,
    column_at: ColumnProvider,
    k: int,
    alpha: float,
    counters: OpCounters,
) -> PivotDecision:
    lam, j = _scan_max(sub, counters) if sub.size else (0.0, 0)
    if sub.size == 0 or lam == 0.0:
        return PivotDecision(PivotKind.SKIP, s=1)
    r = k + 1 + j
    if abs(a_kk) >= alpha * lam:
        return PivotDecision(PivotKind.ONE_BY_ONE, s=1)
    col_r = np.asarray(column_at(r), dtype=np.float64)
    sigma, _ = _scan_max_off(np.abs(col_r), r - k, counters)
    a_rr = float(col_r[r - k])
    if abs(a_kk) * sigma >= alpha * lam * lam:
        return PivotDecision(PivotKind.ONE_BY_ONE, s=1)
    if abs(a_rr) >= alpha * sigma:
        return PivotDecision(PivotKind.ONE_BY_ONE_SWAP_R, s=1, r=r)
    return PivotDecision(PivotKind.TWO_BY_TWO, s=2, r=r)


def _bbk_from_data(
    a_kk: float,
    sub: np.ndarray,
    column_at: ColumnProvider,
    k: int,
    n: int,
    alpha: float,
    counters: OpCounters,
) -> PivotDecision:
    lam, j = _scan_max(sub, counters) if sub.size else (0.0, 0)
    if sub.size == 0 or lam == 0.0:
        return PivotDecision(PivotKind.SKIP, s=1)
    if abs(a_kk) >= alpha * lam:
        return PivotDecision(PivotKind.ONE_BY_ONE, s=1)
    # Rook walk: p_idx holds the previous candidate, imax the current one,
    # colmax = |A(imax, p_idx)|.  colmax grows strictly on every hop, so the
    # walk visits at most n - k columns before it must stop.
    p_idx = k
    imax = k + 1 + j
    colmax = lam
    for _ in range(n - k):
        col = np.asarray(column_at(imax), dtype=np.float64)
        rowmax, local = _scan_max_off(np.abs(col), imax - k, counters)
        jmax = k + local
        if abs(col[imax - k]) >= alpha * rowmax:
            return PivotDecision(PivotKind.ONE_BY_ONE_SWAP_R, s=1, r=imax)
        if jmax == p_idx or rowmax <= colmax:
            pre = None if p_idx == k else p_idx
            return PivotDecision(PivotKind.TWO_BY_TWO, s=2, r=imax, p=pre)
        p_idx, imax, colmax = imax, jmax, rowmax
    raise AssertionError("rook search failed to terminate")  # pragma: no cover

