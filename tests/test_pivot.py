"""Pivot decision rules: threshold tests, swaps, 2x2 blocks, rook walk."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from helpers import random_symmetric

ALPHAS = {_sbkp_from_data: SBKP_ALPHA, _bkpp_from_data: BK_ALPHA, _bbk_from_data: BK_ALPHA}


def decide(rule, a, k=0, alpha=None, counters=None):
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
    return rule(**kwargs)


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


def test_rook_swaps_to_large_diagonal():
    d = decide(_bbk_from_data, [[0.0, 1.0], [1.0, 3.0]])
    assert d.kind is PivotKind.ONE_BY_ONE_SWAP_R
    assert (d.s, d.r) == (1, 1)


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
    want_counters, got_counters = OpCounters(), OpCounters()
    want_value, local = _scan_max(absc[mask], want_counters)
    want_index = int(np.nonzero(mask)[0][local])
    before = absc.copy()
    assert _scan_max_off(absc, d, got_counters) == (want_value, want_index)
    assert got_counters == want_counters
    assert np.array_equal(absc, before)  # the excluded entry is restored
