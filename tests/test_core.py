"""Symmetric kernels: validation, permutations, swaps, norms, Schur updates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from randldl import factor
from randldl.core import (
    Buffer,
    column_norms,
    dgemm,
    is_exactly_symmetric,
    mirror_lower,
    require_disjoint,
    require_int,
    require_real,
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
    [
        np.zeros((2, 3)),
        np.zeros(4),
        np.zeros((0, 0)),
        np.zeros((2, 2, 2)),
        np.eye(2, dtype=np.complex128),
    ],
    ids=["rectangular", "one-dimensional", "empty", "three-dimensional", "complex"],
)
def test_require_square_rejects(bad):
    with pytest.raises(ValueError):
        require_square(bad)


@pytest.mark.parametrize(
    "value",
    [3, np.int64(3), np.int32(3), np.uint8(3)],
    ids=["int", "int64", "int32", "uint8"],
)
def test_require_int_stores_integers_as_int(value):
    out = require_int(value, "k")
    assert type(out) is int and out == 3


@pytest.mark.parametrize(
    "value",
    [True, np.bool_(True), 3.0, np.float64(3.0), "3", None],
    ids=["bool", "numpy-bool", "float", "numpy-float", "string", "none"],
)
def test_require_int_rejects_by_name(value):
    with pytest.raises(ValueError, match=r"^k must be an integer, got "):
        require_int(value, "k")


def test_require_real_casts_real_and_rejects_complex_by_name():
    a = require_real([[1, 2], [3, 4]], "A")
    assert a.dtype == np.float64
    assert np.array_equal(a, [[1.0, 2.0], [3.0, 4.0]])
    for bad in (np.eye(2, dtype=np.complex64), [1.0, 2j], 1j):
        with pytest.raises(ValueError, match=r"^A must be real, got complex input$"):
            require_real(bad, "A")


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
    assert np.allclose(column_norms(m[:, 1:]), [np.sqrt(2.0)], rtol=1e-15)


def test_column_norms_zero_column():
    m = np.array([[0.0, 3.0], [0.0, 4.0]])
    assert np.array_equal(column_norms(m), [0.0, 5.0])


def test_column_norms_empty_slices():
    assert column_norms(np.zeros((3, 2))[:, 2:]).shape == (0,)
    assert np.array_equal(column_norms(np.zeros((0, 2))), [0.0, 0.0])


def test_column_norms_huge_entries_do_not_overflow():
    m = np.full((2, 1), 1e160)
    assert np.isfinite(column_norms(m)).all()
    assert np.allclose(column_norms(m), [1e160 * np.sqrt(2.0)], rtol=1e-15)


@pytest.mark.parametrize("k", [0, 3, 8])
def test_column_norms_same_bits_in_any_layout(k):
    # The engine hands column_norms the row-major view B[:, k:], read in
    # place; a column-major or strided block is copied first.  Either way
    # the squares are summed in the same order, so the norms are the same bits.
    rng = np.random.default_rng(k)
    b = rng.standard_normal((5, 8))
    want = column_norms(b[:, k:])
    assert np.array_equal(column_norms(np.asfortranarray(b[:, k:])), want)
    assert np.array_equal(column_norms(np.repeat(b, 2, axis=1)[:, 2 * k :: 2]), want)


def test_column_norms_validation():
    with pytest.raises(ValueError, match="2-D"):
        column_norms(np.zeros(3))
    # The cast would drop the imaginary parts, leaving norms [0, 1].
    with pytest.raises(ValueError, match="m must be real, got complex input"):
        column_norms([[3j, 1]])


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


# -- BLAS dgemm on views bound whole ----------------------------------------


def _ints(rng, shape, order="F"):
    # Small integers: every product and partial sum is exact, so any
    # summation order gives the same bits.
    return np.asarray(rng.integers(-8, 9, size=shape), dtype=np.float64, order=order)


@pytest.mark.parametrize("t", [1, 2, 7, 64])
@pytest.mark.parametrize("w", [1, 2, 128])
def test_dgemm_updates_a_padded_strip_in_place(t, w):
    # The trailing update's shape: C, a strip of the padded working copy
    # (leading dimension n + 8), minus L's panel rows times W's strip rows,
    # each view bound on its own and read from its first entry.
    rng = np.random.default_rng(100 * t + w)
    n, r0, c0 = w + 45, 5, 3
    padded = _ints(rng, (n, n + 8), order="C")  # column-major n x n, padded
    work = padded.T[:n]
    l_buf, w_buf = _ints(rng, (n, t + 4)), _ints(rng, (w + 3, t + 2))
    a, b = l_buf[r0:, 2 : 2 + t], w_buf[1 : 1 + w, :t]
    c = work[r0:, c0 : c0 + w]
    want = c - a @ b.T
    before = padded.copy()
    dgemm(
        c.shape[0], w, t, -1.0, (Buffer(a), 0, 0), (Buffer(b), 0, 0), 1.0, (Buffer(c), 0, 0),
        trans_b=True,
    )
    assert np.array_equal(c, want)
    outside = np.ones(padded.shape, dtype=bool)
    outside.T[r0:n, c0 : c0 + w] = False  # C's entries; the pad rows stay in
    assert np.array_equal(padded[outside], before[outside])


def test_dgemm_projects_with_beta_zero():
    # The sketch projection's call, (omega @ a).T = a.T @ omega.T with a C-
    # ordered omega read through its transpose, into a C whose old values,
    # NaN here, are not read.
    rng = np.random.default_rng(7)
    omega, a = _ints(rng, (3, 20), order="C"), _ints(rng, (20, 20))
    out_t = np.full((20, 3), np.nan, order="F")
    dgemm(
        20, 3, 20, 1.0, (Buffer(a), 0, 0), (Buffer(omega.T), 0, 0), 0.0, (Buffer(out_t), 0, 0),
        trans_a=True,
    )
    assert np.array_equal(out_t.T, omega @ a)


# -- dgemm on blocks of bound buffers ----------------------------------------


def _column_major(rng, rows, cols):
    """A rows x cols column-major view of small integers whose columns are 8
    entries apart beyond its rows, as the engine pads its working copy of A."""
    return _ints(rng, (cols, rows + 8), order="C").T[:rows]


@pytest.mark.parametrize("t", [1, 2, 64])
@pytest.mark.parametrize("w", [1, 2, 129])  # 129: a strip that absorbed a 1-column remainder
@pytest.mark.parametrize("trans_a, trans_b", [(False, True), (True, False)])
def test_dgemm_matches_numpy_on_blocks_at_offsets(t, w, trans_a, trans_b):
    # Blocks at nonzero offsets of bound buffers against NumPy on the views
    # cut at those offsets: the same bits, and nothing outside C's block moves.
    rng = np.random.default_rng(1000 * t + w)
    m = w + 40
    a_shape = (t, m) if trans_a else (m, t)
    b_shape = (w, t) if trans_b else (t, w)
    a_buf = _column_major(rng, a_shape[0] + 5, a_shape[1] + 2)
    b_buf = _column_major(rng, b_shape[0] + 1, b_shape[1] + 3)
    c_buf = _column_major(rng, m + 7, w + 4)
    a = a_buf[3 : 3 + a_shape[0], 2 : 2 + a_shape[1]]
    b = b_buf[1 : 1 + b_shape[0], 0 : b_shape[1]]
    c = c_buf[5 : 5 + m, 3 : 3 + w]
    before = c_buf.copy()
    want = c_buf.copy()
    want[5 : 5 + m, 3 : 3 + w] = c - (a.T if trans_a else a) @ (b.T if trans_b else b)
    dgemm(
        m, w, t, -1.0, (Buffer(a_buf), 3, 2), (Buffer(b_buf), 1, 0),
        1.0, (Buffer(c_buf), 5, 3), trans_a, trans_b,
    )
    assert np.array_equal(c_buf, want)
    outside = np.ones(c_buf.shape, dtype=bool)
    outside[5 : 5 + m, 3 : 3 + w] = False
    assert np.array_equal(c_buf[outside], before[outside])
    assert not np.array_equal(c_buf, before)


def _bad_blocks():
    """dgemm calls that must be refused: (m, n, k, a, b, c) of a valid
    6 x 4 x 3 product C[1:7, 1:5] -= A @ B.T with one field broken."""
    rng = np.random.default_rng(3)
    a, b = Buffer(_column_major(rng, 6, 3)), Buffer(_column_major(rng, 4, 3))
    c = Buffer(_column_major(rng, 7, 5))
    tall = Buffer(_column_major(rng, 7, 3))
    read_only = _column_major(rng, 7, 5)
    read_only.flags.writeable = False
    ok = (6, 4, 3, (a, 0, 0), (b, 0, 0), (c, 1, 1))

    def broken(**fields):
        names = ("m", "n", "k", "a", "b", "c")
        return tuple(fields.get(name, value) for name, value in zip(names, ok))

    return ok, {
        "a one row past": (broken(a=(a, 1, 0)), "outside"),
        "a one column past": (broken(a=(a, 0, 1)), "outside"),
        "b one row past": (broken(b=(b, 1, 0)), "outside"),
        "b one column past": (broken(b=(b, 0, 1)), "outside"),
        "c one row past": (broken(c=(c, 2, 1)), "outside"),
        "c one column past": (broken(c=(c, 1, 2)), "outside"),
        "product one row taller than c": (broken(m=7, a=(tall, 0, 0)), "outside"),
        "negative row offset": (broken(a=(a, -1, 0)), "outside"),
        "negative column offset": (broken(c=(c, 1, -1)), "outside"),
        "negative dimension": (broken(k=-1), "outside"),
        "read-only c": (broken(c=(Buffer(read_only), 1, 1)), "read-only"),
        # C is c's rows 1:7, columns 1:5.  A at rows 0:6, columns 0:3 or at
        # rows 1:7, columns 2:5, and B (4 x 3) at rows 3:7, columns 2:5 all
        # share entries with it.
        "c overlaps a's block": (broken(a=(c, 0, 0)), "overlaps"),
        "c overlaps a's last column": (broken(a=(c, 1, 2)), "overlaps"),
        "c overlaps b's block": (broken(b=(c, 3, 2)), "overlaps"),
    }


@pytest.mark.parametrize("case", list(_bad_blocks()[1]))
def test_dgemm_rejects_blocks_outside_or_over_its_inputs(case):
    ok, cases = _bad_blocks()
    (m, n, k, a, b, c), message = cases[case]
    buffers = {id(x[0]): x[0] for x in (a, b, c)}.values()
    before = [x.array.copy() for x in buffers]
    with pytest.raises(ValueError, match=message):
        dgemm(m, n, k, -1.0, a, b, 1.0, c, trans_b=True)
    for x, old in zip(buffers, before):
        assert np.array_equal(x.array, old)  # NaN-free data: bitwise
    # The valid call the cases break runs.
    m, n, k, a, b, c = ok
    dgemm(m, n, k, -1.0, a, b, 1.0, c, trans_b=True)


def test_dgemm_reads_and_writes_apart_blocks_of_one_buffer():
    # Column blocks: read B[:, 10:12] and write B[:, 12:].  Row blocks, the
    # sketch updates' shape: read B.T[10:12] and write B.T[12:], whose
    # memory ranges interleave.
    rng = np.random.default_rng(4)
    b_buf, y_buf = _column_major(rng, 5, 40), _column_major(rng, 40, 2)
    want = b_buf.copy(order="F")
    want[:, 12:] -= want[:, 10:12] @ y_buf[12:, :2].T
    bound = Buffer(b_buf)
    dgemm(5, 28, 2, -1.0, (bound, 0, 10), (Buffer(y_buf), 12, 0), 1.0, (bound, 0, 12), False, True)
    assert np.array_equal(b_buf, want)
    bt = b_buf.T.copy(order="F")
    want = bt.copy(order="F")
    want[12:] -= y_buf[12:, :2] @ want[10:12]
    bound = Buffer(bt)
    dgemm(28, 5, 2, -1.0, (Buffer(y_buf), 12, 0), (bound, 10, 0), 1.0, (bound, 12, 0))
    assert np.array_equal(bt, want)


@pytest.mark.parametrize(
    "array, message",
    [
        ([[1.0]], "2-D float64"),
        (np.zeros(6), "2-D float64"),
        (np.zeros((6, 4), dtype=np.float32, order="F"), "float64"),
        (np.zeros((6, 4)), "column-major"),
        (np.zeros((8, 8), order="F")[::2], "column-major"),
        (np.broadcast_to(np.zeros((6, 1)), (6, 3)), "column-major"),
        (
            np.lib.stride_tricks.as_strided(np.zeros((40, 40)), shape=(6, 3), strides=(8, 68)),
            "column-major",
        ),
        (np.zeros((0, 2**31), order="F"), "C int"),
    ],
    ids=[
        "list",
        "one-dimensional",
        "float32",
        "row-major",
        "row stride 2",
        "column stride below rows",
        "column stride not whole entries",
        "dimension beyond a C int",
    ],
)
def test_binding_rejects_what_dgemm_cannot_address(array, message):
    with pytest.raises(ValueError, match=message):
        Buffer(array)


def test_bound_buffers_must_not_overlap():
    base, other = np.zeros((10, 6), order="F"), np.zeros((2, 2), order="F")
    require_disjoint(Buffer(base[:, :3]), Buffer(base[:, 3:]), Buffer(other))
    with pytest.raises(ValueError, match="overlap"):
        require_disjoint(Buffer(base[:, :3]), Buffer(other), Buffer(base[2:, 2:]))


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
