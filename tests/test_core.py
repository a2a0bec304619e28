"""Symmetric kernels: validation, permutations, swaps, norms, Schur updates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from randldl import factor
from randldl.core import (
    column_norms,
    identity_permutation,
    is_exactly_symmetric,
    mirror_lower,
    require_square,
    require_symmetric,
    sym_swap,
)
from helpers import random_symmetric


# -- validation ----------------------------------------------------------


def test_require_square_accepts_square():
    a = require_square([[1, 2], [3, 4]])
    assert a.dtype == np.float64
    assert a.shape == (2, 2)


@pytest.mark.parametrize(
    "bad",
    [np.zeros((2, 3)), np.zeros(4), np.zeros((0, 0)), np.zeros((2, 2, 2))],
    ids=["rectangular", "one-dimensional", "empty", "three-dimensional"],
)
def test_require_square_rejects(bad):
    with pytest.raises(ValueError):
        require_square(bad)


def test_require_symmetric_rejects_asymmetric():
    with pytest.raises(ValueError, match="symmetric"):
        require_symmetric([[1.0, 2.0], [3.0, 4.0]])


def test_is_exactly_symmetric_is_bitwise():
    a = np.array([[1.0, 2.0], [2.0, 1.0]])
    assert is_exactly_symmetric(a)
    a[0, 1] += 1e-16  # still equal: rounds back to 2.0
    assert is_exactly_symmetric(a)
    a[0, 1] = np.nextafter(2.0, 3.0)
    assert not is_exactly_symmetric(a)


# -- permutations --------------------------------------------------------


def test_identity_permutation():
    assert np.array_equal(identity_permutation(4), [0, 1, 2, 3])


# -- swaps and mirroring -------------------------------------------------


def test_sym_swap_matches_relabeling(rng):
    a = rng.standard_normal((5, 5))
    a = a + a.T
    b = a.copy()
    sym_swap(b, 1, 4)
    perm = np.array([0, 4, 2, 3, 1])
    assert np.array_equal(b, a[np.ix_(perm, perm)])
    assert is_exactly_symmetric(b)


def test_sym_swap_same_index_is_noop(rng):
    a = rng.standard_normal((3, 3))
    b = a.copy()
    sym_swap(b, 2, 2)
    assert np.array_equal(a, b)


def test_sym_swap_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        sym_swap(np.eye(2), 0, 2)


def test_mirror_lower_known_value():
    a = np.array([[1.0, 9.0], [2.0, 1.0]])
    assert np.array_equal(mirror_lower(a), [[1.0, 2.0], [2.0, 1.0]])


def test_mirror_lower_in_place(rng):
    a = rng.standard_normal((6, 6))
    out = mirror_lower(a)
    assert out is a
    assert is_exactly_symmetric(a)


# -- column norms --------------------------------------------------------


def test_column_norms_known_values():
    m = np.array([[1.0, 1.0], [1.0, -1.0]])
    assert np.allclose(column_norms(m), [np.sqrt(2.0), np.sqrt(2.0)], rtol=1e-15)
    assert np.allclose(column_norms(m, from_col=1), [np.sqrt(2.0)], rtol=1e-15)


def test_column_norms_zero_column():
    m = np.array([[0.0, 3.0], [0.0, 4.0]])
    assert np.array_equal(column_norms(m), [0.0, 5.0])


def test_column_norms_empty_slices():
    assert column_norms(np.zeros((3, 2)), from_col=2).shape == (0,)
    assert np.array_equal(column_norms(np.zeros((0, 2))), [0.0, 0.0])


def test_column_norms_huge_entries_do_not_overflow():
    m = np.full((2, 1), 1e160)
    assert np.isfinite(column_norms(m)).all()
    assert np.allclose(column_norms(m), [1e160 * np.sqrt(2.0)], rtol=1e-15)


def test_column_norms_validation():
    with pytest.raises(ValueError, match="2-D"):
        column_norms(np.zeros(3))
    with pytest.raises(ValueError, match="from_col"):
        column_norms(np.zeros((2, 2)), from_col=3)


@settings(max_examples=30)
@given(
    hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=2, max_dims=2, max_side=8),
        # Entries tiny enough that the plain sum-of-squares reference
        # underflows are flushed to zero: there column_norms is *more*
        # accurate than the oracle, so the comparison would be unfair.
        elements=st.floats(-1e6, 1e6).map(lambda x: 0.0 if abs(x) < 1e-100 else x),
    )
)
def test_column_norms_matches_reference(m):
    expect = np.linalg.norm(m, axis=0)
    assert np.allclose(column_norms(m), expect, rtol=1e-12, atol=1e-300)


# -- Schur updates -------------------------------------------------------
#
# factor applies each step's update A22 - L21 A11 L21^T inside its engine,
# either at once (b=1) or delayed to the end of a panel (b=64); both paths
# are checked through what factor returns.


def test_schur_update_one_by_one_known_value():
    # Eliminating the 4 leaves [[2, 0], [0, 2]]: both later pivots see a
    # zero column, so L and D expose the Schur complement exactly.
    a = np.array([[4.0, 2.0, 2.0], [2.0, 3.0, 1.0], [2.0, 1.0, 3.0]])
    for b in (1, 64):
        f = factor(a, strategy="bkpp", b=b)
        assert np.array_equal(f.perm, [0, 1, 2])
        assert np.array_equal(
            f.L, [[1.0, 0.0, 0.0], [0.5, 1.0, 0.0], [0.5, 0.0, 1.0]]
        )
        assert np.array_equal(f.D.to_dense(), np.diag([4.0, 2.0, 2.0]))


def test_schur_update_two_by_two_matches_formula():
    # A dominant off-diagonal over a zero diagonal makes the first pivot the
    # 2x2 block A11; what factor leaves behind must be A22 - L21 A11 L21^T.
    a = random_symmetric(7, seed=5)
    a[:2, :2] = [[0.0, 10.0], [10.0, 0.0]]
    for b in (1, 64):
        f = factor(a, strategy="bkpp", b=b)
        assert np.array_equal(f.perm[:2], [0, 1])
        a11 = f.D.blocks[0]
        assert np.array_equal(a11, a[:2, :2])
        l21 = f.L[2:, :2]
        rest = f.perm[2:] - 2
        assert np.allclose(l21 @ a11, a[2:, :2][rest], rtol=1e-14, atol=1e-14)
        schur = a[2:, 2:] - a[2:, :2] @ np.linalg.solve(a11, a[:2, 2:])
        l22 = f.L[2:, 2:]
        got = l22 @ f.D.to_dense()[2:, 2:] @ l22.T
        assert np.allclose(got, schur[np.ix_(rest, rest)], rtol=1e-13, atol=1e-13)


def test_schur_update_trailing_empty_is_noop():
    # Eliminating the 4 leaves [[0, 2], [2, 0]], taken as the last, 2x2,
    # pivot.  No rows trail it, so its block is that Schur complement as it
    # stands and its own L block stays the identity.
    a = np.array([[4.0, 2.0, 2.0], [2.0, 1.0, 3.0], [2.0, 3.0, 1.0]])
    for b in (1, 64):
        f = factor(a, strategy="bkpp", b=b)
        assert np.array_equal(f.perm, [0, 1, 2])
        assert [blk.shape[0] for blk in f.D.blocks] == [1, 2]
        assert np.array_equal(f.D.blocks[1], [[0.0, 2.0], [2.0, 0.0]])
        assert np.array_equal(
            f.L, [[1.0, 0.0, 0.0], [0.5, 1.0, 0.0], [0.5, 0.0, 1.0]]
        )
