"""Symmetric kernels: validation, permutations, swaps, norms, Schur updates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from randldl import factor
from randldl.core import (
    column_norms,
    gemm,
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


@pytest.mark.parametrize("i", [0, 127, 128, 255, 299])
@pytest.mark.parametrize("j", [0, 127, 128, 255, 299])
def test_is_exactly_symmetric_sees_one_ulp_at_tile_edges(i, j):
    # The check compares 128 x 128 tiles; a one-ulp change at a tile's first
    # or last row or column, or in the ragged last tile, must still show.
    a = random_symmetric(300, seed=4)
    assert is_exactly_symmetric(a)
    a[i, j] = np.nextafter(a[i, j], np.inf)
    assert is_exactly_symmetric(a) is (i == j)
    a[i, j] = np.nan
    assert not is_exactly_symmetric(a)


# -- permutations --------------------------------------------------------


def test_identity_permutation():
    assert np.array_equal(identity_permutation(4), [0, 1, 2, 3])


# -- swaps and mirroring -------------------------------------------------


def test_sym_swap_matches_relabeling(rng):
    # Swapping 1 and 4 inside the active block a[1:, 1:] leaves its lower
    # triangle equal to that of the relabeled matrix, and touches nothing
    # else: not the strict upper triangle, not the eliminated row and column.
    a = rng.standard_normal((6, 6))
    a = a + a.T
    b = a.copy()
    sym_swap(b[1:, 1:], 0, 3)
    perm = np.array([0, 4, 2, 3, 1, 5])
    lower = np.tril(np.ones((6, 6), dtype=bool))
    lower[0, :] = lower[:, 0] = False
    assert np.array_equal(b[lower], a[np.ix_(perm, perm)][lower])
    assert np.array_equal(b[~lower], a[~lower])


@settings(max_examples=200)
@given(st.data())
def test_sym_swap_lower_triangle_property(data):
    n = data.draw(st.integers(2, 9), label="n")
    k = data.draw(st.integers(0, n - 2), label="k")
    i = data.draw(st.integers(k, n - 2), label="i")
    j = data.draw(st.integers(i + 1, n - 1), label="j")
    a = random_symmetric(n, seed=data.draw(st.integers(0, 2**16), label="seed"))
    b = a.copy()
    b[np.triu_indices(n, 1)] = np.nan  # a read of these would leak NaN below
    before = b.copy()
    if data.draw(st.booleans(), label="reversed"):
        sym_swap(b[k:, k:], j - k, i - k)
    else:
        sym_swap(b[k:, k:], i - k, j - k)
    perm = np.arange(n)
    perm[[i, j]] = perm[[j, i]]
    active = np.zeros((n, n), dtype=bool)
    active[k:, k:] = np.tri(n - k, dtype=bool)
    assert np.array_equal(b[active], a[np.ix_(perm, perm)][active])
    assert np.array_equal(b[~active], before[~active], equal_nan=True)


def test_sym_swap_same_index_is_noop(rng):
    a = rng.standard_normal((3, 3))
    b = a.copy()
    sym_swap(b[1:, 1:], 1, 1)
    assert np.array_equal(a, b)


def test_sym_swap_out_of_range():
    a = np.eye(4)
    with pytest.raises(ValueError, match="out of range"):
        sym_swap(a, 0, 4)
    with pytest.raises(ValueError, match="out of range"):
        sym_swap(a[2:, 2:], 0, 2)  # index 2 of a 2x2 active block
    with pytest.raises(ValueError, match="out of range"):
        sym_swap(a[2:, 2:], -1, 1)


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


# -- BLAS dgemm on column-major views -------------------------------------


def _ints(rng, shape, order="F"):
    # Small integers: every product and partial sum is exact, so any
    # summation order gives the same bits.
    return np.asarray(rng.integers(-8, 9, size=shape), dtype=np.float64, order=order)


@pytest.mark.parametrize("t", [1, 2, 7, 64])
@pytest.mark.parametrize("w", [1, 2, 128])
def test_gemm_updates_a_padded_strip_in_place(t, w):
    # The trailing update's shape: C, a strip of the padded working copy
    # (leading dimension n + 8), minus L's panel rows times W's strip rows.
    rng = np.random.default_rng(100 * t + w)
    n, r0, c0 = w + 45, 5, 3
    padded = _ints(rng, (n, n + 8), order="C")  # column-major n x n, padded
    work = padded.T[:n]
    l_buf, w_buf = _ints(rng, (n, t + 4)), _ints(rng, (w + 3, t + 2))
    a, b = l_buf[r0:, 2 : 2 + t], w_buf[1 : 1 + w, :t]
    c = work[r0:, c0 : c0 + w]
    want = c - a @ b.T
    before = padded.copy()
    gemm(-1.0, a, b, 1.0, c, trans_b=True)
    assert np.array_equal(c, want)
    outside = np.ones(padded.shape, dtype=bool)
    outside.T[r0:n, c0 : c0 + w] = False  # C's entries; the pad rows stay in
    assert np.array_equal(padded[outside], before[outside])


def test_gemm_projects_with_beta_zero():
    # The sketch projection's call, (omega @ a).T = a.T @ omega.T with a C-
    # ordered omega read through its transpose, into a C whose old values,
    # NaN here, are not read.
    rng = np.random.default_rng(7)
    omega, a = _ints(rng, (3, 20), order="C"), _ints(rng, (20, 20))
    out_t = np.full((20, 3), np.nan, order="F")
    gemm(1.0, a, omega.T, 0.0, out_t, trans_a=True)
    assert np.array_equal(out_t.T, omega @ a)


def _bad_operands():
    def f(*shape):
        return np.zeros(shape, order="F")

    big = f(40, 40)
    read_only = f(6, 4)
    read_only.flags.writeable = False
    huge = f(0, 2**31)  # no entries, so no memory, but k does not fit a C int
    return {
        "list": ([[1.0]], f(1, 1), f(1, 1), "2-D float64"),
        "one-dimensional": (np.zeros(6), f(4, 1), f(6, 4), "2-D float64"),
        "float32": (f(6, 3).astype(np.float32), f(4, 3), f(6, 4), "float64"),
        "C-ordered a": (np.zeros((6, 3)), f(4, 3), f(6, 4), "column-major"),
        "row stride 2": (f(6, 3), f(4, 3), big[:12:2, :4], "column-major"),
        "column stride below rows": (
            np.broadcast_to(np.zeros((6, 1)), (6, 3)), f(4, 3), f(6, 4), "column-major"
        ),
        "column stride not whole entries": (
            np.lib.stride_tricks.as_strided(big, shape=(6, 3), strides=(8, 68)),
            f(4, 3), f(6, 4), "column-major",
        ),
        "dimension beyond a C int": (huge, huge, f(0, 0), "C int"),
        "inner dimensions differ": (f(6, 3), f(4, 4), f(6, 4), "conform"),
        "c too wide": (f(6, 3), f(4, 3), f(6, 5), "conform"),
        "read-only c": (f(6, 3), f(4, 3), read_only, "read-only"),
        "c overlaps a": (big[:6, :3], f(4, 3), big[10:16, :4], "overlap"),
    }


@pytest.mark.parametrize("case", list(_bad_operands()))
def test_gemm_rejects_bad_operands(case):
    a, b, c, message = _bad_operands()[case]
    before = c.copy()
    with pytest.raises(ValueError, match=message):
        gemm(-1.0, a, b, 1.0, c, trans_b=True)
    assert np.array_equal(c, before)


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
