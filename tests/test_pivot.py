"""Pivot decision rules: threshold tests, swaps, 2x2 blocks, rook walk."""

import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from randldl import FactorConfig
from randldl.factor import _Engine
from randldl.metrics import OpCounters
from randldl.pivot import (
    BK_ALPHA,
    SBKP_ALPHA,
    PivotDecision,
    PivotKind,
    _bbk_from_data,
    _bkpp_from_data,
    _sbkp_from_data,
    _scan_max,
    _scan_max_off,
)
from helpers import _offdiag_table, random_symmetric

ALPHAS = {_sbkp_from_data: SBKP_ALPHA, _bkpp_from_data: BK_ALPHA, _bbk_from_data: BK_ALPHA}


def decide(rule, a, k=0, alpha=None, counters=None, **extra):
    """Run a rule on step k of ``a``, feeding it the way the engine does.

    ``a[k:, k:]`` plays the active Schur complement: the rule gets its
    leading column and reads further columns or diagonal entries on demand.
    """
    a = np.asarray(a, dtype=np.float64)
    kwargs = dict(
        a_kk=float(a[k, k]),
        sub=np.abs(a[k + 1 :, k]),
        k=k,
        alpha=ALPHAS[rule] if alpha is None else alpha,
        counters=OpCounters() if counters is None else counters,
    )
    if rule is _sbkp_from_data:
        kwargs["diag_at"] = lambda r: float(a[r, r])
    else:
        kwargs["column_at"] = lambda j: a[k:, j]
    if rule is _bbk_from_data:
        kwargs["n"] = a.shape[0]
    return rule(**kwargs, **extra)


# -- constants -----------------------------------------------------------


def test_threshold_constants():
    assert SBKP_ALPHA == math.sqrt(2.0) / 2.0
    assert BK_ALPHA == (1.0 + math.sqrt(17.0)) / 8.0
    assert 0.0 < BK_ALPHA < SBKP_ALPHA < 1.0


# -- simplified rule (used after the randomized column swap) ---------------


def test_simplified_accepts_dominant_diagonal():
    d = decide(_sbkp_from_data, [[2.0, 1.0], [1.0, 0.0]])
    assert d == PivotDecision(PivotKind.ONE_BY_ONE, s=1)


def test_simplified_swaps_to_large_diagonal():
    d = decide(_sbkp_from_data, [[0.0, 1.0], [1.0, 3.0]])
    assert d.kind is PivotKind.ONE_BY_ONE_SWAP_R
    assert (d.s, d.r) == (1, 1)


def test_simplified_takes_two_by_two():
    d = decide(_sbkp_from_data, [[0.0, 1.0], [1.0, 0.0]])
    assert d.kind is PivotKind.TWO_BY_TWO
    assert (d.s, d.r, d.p) == (2, 1, None)


def test_simplified_skips_zero_column():
    d = decide(_sbkp_from_data, [[5.0, 0.0], [0.0, 7.0]])
    assert d == PivotDecision(PivotKind.SKIP, s=1)


def test_simplified_skips_last_column():
    d = decide(_sbkp_from_data, [[5.0, 0.0], [0.0, 7.0]], k=1)
    assert d.kind is PivotKind.SKIP


def test_simplified_threshold_is_non_strict():
    alpha = 0.5
    # |a_kk| == alpha * lambda exactly: ties resolve to the 1x1 pivot.
    d = decide(_sbkp_from_data, [[1.0, 2.0], [2.0, 0.0]], alpha=alpha)
    assert d.kind is PivotKind.ONE_BY_ONE


# -- partial pivoting rule -------------------------------------------------


def test_partial_accepts_dominant_diagonal():
    d = decide(_bkpp_from_data, [[2.0, 1.0], [1.0, 0.0]])
    assert d == PivotDecision(PivotKind.ONE_BY_ONE, s=1)


def test_partial_accepts_via_column_r_scan():
    # |a_kk| < alpha*lam but |a_kk|*sigma >= alpha*lam^2 keeps the 1x1 pivot
    # without a swap (sigma = 2 from column r's off-diagonal entries).
    a = [[0.5, 1.0, 0.0], [1.0, 0.0, 2.0], [0.0, 2.0, 9.0]]
    counters = OpCounters()
    d = decide(_bkpp_from_data, a, counters=counters)
    assert d == PivotDecision(PivotKind.ONE_BY_ONE, s=1)
    assert counters.comps == 2  # one scan of the column, one of column r


def test_partial_swaps_to_large_diagonal():
    d = decide(_bkpp_from_data, [[0.0, 1.0], [1.0, 3.0]])
    assert d.kind is PivotKind.ONE_BY_ONE_SWAP_R
    assert (d.s, d.r) == (1, 1)


def test_partial_takes_two_by_two_on_tiny_diagonal():
    eps = 2.0**-53
    d = decide(_bkpp_from_data, [[eps, 1.0], [1.0, eps]])
    assert d.kind is PivotKind.TWO_BY_TWO
    assert (d.s, d.r) == (2, 1)


def test_partial_skips_zero_column():
    d = decide(_bkpp_from_data, [[0.0, 0.0], [0.0, 7.0]])
    assert d.kind is PivotKind.SKIP


# -- rook rule -------------------------------------------------------------


def test_rook_accepts_dominant_diagonal():
    d = decide(_bbk_from_data, [[2.0, 1.0], [1.0, 0.0]])
    assert d == PivotDecision(PivotKind.ONE_BY_ONE, s=1)
    assert d.hops == 0  # a_kk dominates, so no walk runs


def test_rook_swaps_to_large_diagonal():
    d = decide(_bbk_from_data, [[0.0, 1.0], [1.0, 3.0]])
    assert d.kind is PivotKind.ONE_BY_ONE_SWAP_R
    assert (d.s, d.r, d.hops) == (1, 1, 1)


def test_rook_takes_adjacent_two_by_two():
    d = decide(_bbk_from_data, [[0.0, 1.0], [1.0, 0.0]])
    assert d.kind is PivotKind.TWO_BY_TWO
    assert (d.s, d.r, d.p) == (2, 1, None)


def test_rook_walk_pairs_two_interior_rows():
    # Column 0 points to row 2; row 2's largest neighbour is row 3, whose own
    # largest neighbour is row 2 again, so the walk settles on the (2, 3)
    # pair: p=2 moves to the front, r=3 becomes its partner.
    a = np.array(
        [
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 0.1],
            [1.0, 0.0, 0.0, 10.0],
            [0.0, 0.1, 10.0, 0.0],
        ]
    )
    d = decide(_bbk_from_data, a)
    assert d.kind is PivotKind.TWO_BY_TWO
    assert (d.s, d.r, d.p) == (2, 3, 2)
    assert d.hops == 2  # columns 2 and 3


def test_rook_skips_zero_column():
    d = decide(_bbk_from_data, [[0.0, 0.0], [0.0, 7.0]])
    assert d.kind is PivotKind.SKIP


# -- shared properties -----------------------------------------------------


RULES = [_sbkp_from_data, _bkpp_from_data, _bbk_from_data]
RULE_IDS = ["simplified", "partial", "rook"]


@pytest.mark.parametrize("rule", RULES, ids=RULE_IDS)
@settings(max_examples=40)
@given(seed=st.integers(0, 10_000), j=st.integers(-8, 8))
def test_decisions_are_scale_invariant(rule, seed, j):
    # Every test in every rule compares |x| against alpha*|y|; multiplying the
    # matrix by an exact power of two scales both sides exactly, so the
    # decision cannot change.
    a = random_symmetric(5, seed=seed)
    base = decide(rule, a)
    scaled = decide(rule, a * 2.0**j)
    assert scaled == base


@pytest.mark.parametrize("rule", RULES, ids=RULE_IDS)
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("seed", range(5))
def test_decision_reads_only_trailing_submatrix(rule, k, seed):
    a = random_symmetric(7, seed=seed)
    global_d = decide(rule, a, k)
    local_d = decide(rule, a[k:, k:].copy())
    assert global_d.kind is local_d.kind
    assert global_d.s == local_d.s
    if local_d.r is not None:
        assert global_d.r == local_d.r + k
    if local_d.p is not None:
        assert global_d.p == local_d.p + k


def test_comparison_counter_charges_scans():
    counters = OpCounters()
    a = np.array([[2.0, 1.0, 1.0], [1.0, 5.0, 0.0], [1.0, 0.0, 5.0]])
    decide(_sbkp_from_data, a, counters=counters)
    assert counters.comps == 1  # one scan of the 2 subdiagonal entries


@settings(max_examples=300)
@given(
    values=st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, math.inf]), min_size=2, max_size=9),
    data=st.data(),
)
def test_off_diagonal_scan_matches_masked_scan(values, data):
    # Reference: a scan of a copy with entry d masked out.  Drawing from a
    # few values gives ties and all-zero columns.
    absc = np.array(values)
    d = data.draw(st.integers(0, absc.size - 1), label="d")
    mask = np.ones(absc.size, dtype=bool)
    mask[d] = False
    want_value, local = _scan_max(absc[mask], OpCounters())
    want_index = int(np.nonzero(mask)[0][local])
    before = absc.copy()
    assert _scan_max_off(absc, d) == (want_value, want_index)
    assert np.array_equal(absc, before)  # the excluded entry is restored


# -- off-diagonal table ------------------------------------------------------


def _sample_matrix(data, m):
    """A symmetric m x m matrix over a few values: ties, zeros, zero columns."""
    entries = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 0.5])
    values = data.draw(st.lists(entries, min_size=m * m, max_size=m * m), label="values")
    a = np.tril(np.array(values).reshape(m, m))
    a = a + np.tril(a, -1).T
    for j in data.draw(st.lists(st.integers(0, m - 1), max_size=2), label="zero columns"):
        a[j, :] = a[:, j] = 0.0
    return a


@seed(2017)
@settings(max_examples=200)
@given(m=st.integers(2, 9), data=st.data())
def test_offdiag_table_matches_column_scans(m, data):
    # The engine's column j at t = 0, scanned by _scan_max_off, is the
    # reference; the table must agree bitwise in value and index, whatever the
    # strict upper triangle holds.
    a = _sample_matrix(data, m)
    engine = _Engine(a, FactorConfig(strategy="bbk"))
    k = data.draw(st.integers(0, m - 2), label="k")
    engine.k = k
    engine.A[np.triu_indices(m, 1)] = np.nan
    absdiag, vmax, imax = _offdiag_table(engine.A[k:, k:])
    for j in range(k, m):
        col = np.abs(engine._form_column(j))
        value, index = _scan_max_off(col, j - k)
        assert (vmax[j - k], imax[j - k]) == (value, index)
        assert math.copysign(1.0, vmax[j - k]) == 1.0
        assert absdiag[j - k] == col[j - k]


@pytest.mark.parametrize("m", [2, 3, 127, 128, 129, 300])
def test_offdiag_table_across_block_edges(m):
    # Gaussian entries rounded to a few values tie often, also across the
    # 128-wide blocks; the strict upper triangle holds NaN.
    a = np.round(random_symmetric(m, seed=m))
    a[np.triu_indices(m, 1)] = np.nan
    absdiag, vmax, imax = _offdiag_table(a)
    for j in range(m):
        col = np.abs(np.concatenate((a[j, :j], a[j:, j])))
        assert (vmax[j], imax[j]) == _scan_max_off(col, j)
        assert absdiag[j] == col[j]


def test_offdiag_table_ties_go_to_the_row_segment():
    # Column 1 holds magnitude 2 on both sides of its diagonal: in its row
    # segment (index 0) and in its column segment (index 2).
    a = np.array([[0.0, 0.0, 0.0], [0.0, 3.0, 0.0], [0.0, 2.0, -1.0]])
    a[1, 0] = -2.0
    absdiag, vmax, imax = _offdiag_table(a)
    assert absdiag == [0.0, 3.0, 1.0]
    assert vmax == [2.0, 2.0, 2.0]
    assert imax == [1, 0, 1]


def test_offdiag_table_finds_nan_first():
    # argmax reports the first NaN: in the row segment before the column one.
    a = np.array([[1.0, 0.0, 0.0], [np.nan, 1.0, 0.0], [5.0, np.nan, 1.0]])
    _, vmax, imax = _offdiag_table(a)
    assert math.isnan(vmax[0]) and imax[0] == 1
    assert math.isnan(vmax[1]) and imax[1] == 0
    assert math.isnan(vmax[2]) and imax[2] == 1


@pytest.mark.parametrize("table", [True, False], ids=["table", "long_walk=None"])
@seed(2017)
@settings(max_examples=100)
@given(m=st.integers(2, 9), hop_limit=st.integers(0, 3), data=st.data())
def test_rook_walk_from_table_matches_formed_columns(table, m, hop_limit, data):
    # Switching to the table after any number of hops changes neither the
    # decision, the number of columns the walk visits included, nor the
    # comparisons charged.  Without a table the walk forms every column it
    # visits, whatever the hop limit.
    a = _sample_matrix(data, m)
    want_counters, got_counters = OpCounters(), OpCounters()
    want = decide(_bbk_from_data, a, counters=want_counters)
    got = decide(
        _bbk_from_data,
        a,
        counters=got_counters,
        long_walk=(lambda: _offdiag_table(a)) if table else None,
        hop_limit=hop_limit,
    )
    assert got == want
    assert got_counters == want_counters
