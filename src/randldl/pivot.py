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

A rook walk that reaches a hop limit asks its caller for an off-diagonal
table: every column's ``|a_jj|``, largest off-diagonal magnitude and its
first index, as LAPACK ``dsytrf_rook`` and bounded Bunch-Kaufman (Ashcraft,
Grimes & Lewis, 1998) make the search cheap.  The table is read by
position: entry j describes the column at position j, and its index is a
position.  Each entry is ``_scan_max_off`` of the column's magnitudes, so
each later hop is a list lookup that gives bitwise what forming and
scanning the column gives.  The engine scans every column once for a run
of long walks, and after each step re-scans only the columns the step can
have changed, as bounded Bunch-Kaufman keeps its column maxima between
steps.  A hop limit of 0 reads the table from the walk's first hop; the
engine passes it while walks keep running long.  A caller without a table
(inside a panel, where the stored block is not yet the Schur complement)
passes none, and the walk forms every column it visits.

The rules never modify the matrix; they only read it and increment the
comparison counter by the length of each max scan.  A hop answered from the
table is charged the same ``m - 2`` comparisons as the scan it replaces, so
the cost model stays the textbook one.
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
    ``p`` to position k before swapping ``r`` to position k+1.  ``hops`` is
    the number of columns the rook walk visited, formed or read from the
    table; 0 when no walk ran.
    """

    kind: PivotKind
    s: int
    r: int | None = None
    p: int | None = None
    hops: int = 0


# ``column_at(j)`` returns column j of the active Schur complement from row k
# down; ``diag_at(j)`` returns its diagonal entry j.  ``long_walk()`` returns
# the off-diagonal table of the active Schur complement, read by position
# from k on.
ColumnProvider = Callable[[int], np.ndarray]
DiagProvider = Callable[[int], float]
OffDiagTable = tuple[list[float], list[float], list[int]]
TableProvider = Callable[[], OffDiagTable]


def _scan_max(values: np.ndarray, counters: OpCounters) -> tuple[float, int]:
    """Max magnitude and its first index; counts the scan's comparisons."""
    counters.comps += max(values.size - 1, 0)
    j = int(values.argmax())
    return float(values[j]), j


def _scan_max_off(values: np.ndarray, d: int) -> tuple[float, int]:
    """Like ``_scan_max`` over every entry but ``values[d]`` (needs size >= 2).

    ``values[d]`` is set to -inf for the scan and restored afterwards, which
    finds the same value and index as scanning a copy without it but builds
    no mask.  It counts nothing: a search charges the ``size - 2``
    comparisons itself, and the engine's upkeep of the off-diagonal table,
    which runs this scan too, charges none.
    """
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
    sigma, _ = _scan_max_off(np.abs(col_r), r - k)
    counters.comps += col_r.size - 2
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
    long_walk: TableProvider | None = None,
    hop_limit: int = 0,
) -> PivotDecision:
    """Rook search; after ``hop_limit`` formed columns, hops read ``long_walk()``."""
    lam, j = _scan_max(sub, counters) if sub.size else (0.0, 0)
    if sub.size == 0 or lam == 0.0:
        return PivotDecision(PivotKind.SKIP, s=1)
    if abs(a_kk) >= alpha * lam:
        return PivotDecision(PivotKind.ONE_BY_ONE, s=1)
    # Rook walk in local indices (row k is 0): p holds the previous
    # candidate, i the current one, colmax = |A(i, p)|.  colmax grows
    # strictly on every hop, so the walk visits at most m columns.
    m = n - k
    p, i, colmax = 0, 1 + j, lam
    for hop in range(m):
        if hop == hop_limit and long_walk is not None:
            return _table_walk(long_walk(), k, p, i, colmax, alpha, counters, hop)
        col = np.asarray(column_at(k + i), dtype=np.float64)
        rowmax, local = _scan_max_off(np.abs(col), i)
        counters.comps += m - 2
        if abs(col[i]) >= alpha * rowmax or local == p or rowmax <= colmax:
            return _rook_stop(k, p, i, abs(col[i]) >= alpha * rowmax, hop + 1)
        p, i, colmax = i, local, rowmax
    raise AssertionError("rook search failed to terminate")  # pragma: no cover


def _rook_stop(k: int, p: int, i: int, diagonal: bool, hops: int) -> PivotDecision:
    """Where a rook walk of ``hops`` visits ends, at local candidate i after p."""
    if diagonal:
        return PivotDecision(PivotKind.ONE_BY_ONE_SWAP_R, s=1, r=k + i, hops=hops)
    return PivotDecision(
        PivotKind.TWO_BY_TWO, s=2, r=k + i, p=None if p == 0 else k + p, hops=hops
    )


def _table_walk(
    table: OffDiagTable,
    k: int,
    p: int,
    i: int,
    colmax: float,
    alpha: float,
    counters: OpCounters,
    formed: int,
) -> PivotDecision:
    """The rest of a rook walk after ``formed`` hops, each read from the table.

    The walk reads the table by position: p and i become k + p and k + i.
    """
    absdiag, vmax, vidx = table
    m = len(absdiag) - k
    p, i = k + p, k + i
    for hops in range(1, m + 1):
        rowmax, at = vmax[i], vidx[i]
        if absdiag[i] >= alpha * rowmax or at == p or rowmax <= colmax:
            counters.comps += hops * (m - 2)
            return _rook_stop(k, p - k, i - k, absdiag[i] >= alpha * rowmax, formed + hops)
        p, i, colmax = i, at, rowmax
    raise AssertionError("rook search failed to terminate")  # pragma: no cover

