"""Solve phase: substitution pipeline, singular handling, backward error."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from randldl import (
    BlockDiag,
    Factorization,
    GrowthStats,
    SBKP_ALPHA,
    backward_error,
    factor,
    solve,
    solve_many,
)
from randldl.core import det_2x2
from randldl.factor import _block_multipliers
from randldl.solve import block_diag_solve
from helpers import random_symmetric

STRATEGIES = ["rcp", "bkpp", "bbk"]


# -- block diagonal solves ---------------------------------------------------


def test_block_diag_solve_known_values():
    d = BlockDiag([np.array([[2.0]]), np.array([[0.0, 1.0], [1.0, 0.0]])])
    w, singular = block_diag_solve(d, np.array([2.0, 3.0, 4.0]))
    assert not singular
    assert np.array_equal(w, [1.0, 4.0, 3.0])


def test_block_diag_solve_matrix_rhs():
    d = BlockDiag([np.array([[2.0]]), np.array([[4.0]])])
    w, singular = block_diag_solve(d, np.array([[2.0, 4.0], [8.0, 12.0]]))
    assert not singular
    assert np.array_equal(w, [[1.0, 2.0], [2.0, 3.0]])


def test_block_diag_solve_zeroes_singular_blocks():
    d = BlockDiag([np.array([[0.0]]), np.array([[1.0, 1.0], [1.0, 1.0]])])
    w, singular = block_diag_solve(d, np.array([5.0, 6.0, 7.0]))
    assert singular
    assert np.array_equal(w, [0.0, 0.0, 0.0])


def test_block_diag_solve_dimension_check():
    d = BlockDiag([np.array([[1.0]])])
    with pytest.raises(ValueError, match="covers"):
        block_diag_solve(d, np.zeros(3))


def test_block_diag_solve_rejects_complex_right_hand_side():
    # The float64 cast would drop the imaginary part with only a warning.
    d = BlockDiag([np.array([[2.0]])])
    with pytest.raises(ValueError, match="z must be real, got complex input"):
        block_diag_solve(d, np.array([2.0 + 5j]))


def test_block_diag_rejects_malformed_blocks():
    with pytest.raises(ValueError, match="1x1 or 2x2"):
        BlockDiag([np.eye(3)])
    with pytest.raises(ValueError, match="symmetric"):
        BlockDiag([np.array([[1.0, 2.0], [3.0, 1.0]])])


@pytest.mark.parametrize(
    "blocks",
    [
        [[[2 + 5j]]],
        [[[1.0]], [[0.0, 2j], [2j, 1.0]]],
        [[[1]], np.array([[3.0]], dtype=np.complex64)],
    ],
    ids=["1x1", "2x2-after-real", "complex64-after-int"],
)
def test_block_diag_rejects_complex_blocks(blocks):
    # One complex block makes the whole concatenated buffer complex.
    with pytest.raises(ValueError, match="D must be real, got complex input"):
        BlockDiag([np.asarray(b) for b in blocks])


def test_block_diag_casts_real_blocks_to_float64():
    d = BlockDiag([np.array([[2]]), np.array([[0, 1], [1, 0]], dtype=np.float32)])
    assert [b.dtype for b in d.blocks] == [np.float64, np.float64]
    assert np.array_equal(d.to_dense(), [[2.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])


@pytest.mark.parametrize(
    "blocks",
    [
        [[[np.nan]], [[2.0]]],
        [[[1.0]], [[-np.inf]]],
        [[[np.inf, 1.0], [1.0, 0.0]]],
        [[[0.0, np.nan], [np.nan, 1.0]]],
    ],
    ids=["nan-1x1", "inf-1x1", "inf-2x2", "nan-2x2-offdiag"],
)
def test_block_diag_rejects_non_finite_blocks(blocks):
    # Named before any determinant is formed, and before the symmetry check
    # a NaN pair would fail as asymmetry.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^D contains NaN or Inf$"):
            BlockDiag([np.array(b) for b in blocks])


def _blockwise_reference(blocks: list[np.ndarray], z: np.ndarray) -> tuple[np.ndarray, bool]:
    """One block at a time in scalar arithmetic: the formulas block_diag_solve vectorizes."""
    w = np.array(z, dtype=np.float64, copy=True)
    singular = False
    i = 0
    for blk in blocks:
        if blk.shape[0] == 1:
            dv = float(blk[0, 0])
            if dv == 0.0:
                singular = True
                w[i] = 0.0
            else:
                w[i] /= dv
        else:
            d11, d21, d22 = float(blk[0, 0]), float(blk[1, 0]), float(blk[1, 1])
            det = d11 * d22 - d21 * d21
            if det == 0.0:
                singular = True
                w[i : i + 2] = 0.0
            else:
                z1, z2 = w[i].copy(), w[i + 1].copy()
                w[i] = (d22 * z1 - d21 * z2) / det
                w[i + 1] = (d11 * z2 - d21 * z1) / det
        i += blk.shape[0]
    return w, singular


_VALUE = st.floats(-100.0, 100.0).map(lambda v: 0.0 if abs(v) < 1e-6 else v)


@st.composite
def _block(draw):
    kind = draw(st.sampled_from(["1x1", "zero 1x1", "2x2", "singular 2x2"]))
    if kind == "1x1":
        return np.array([[draw(_VALUE)]])
    if kind == "zero 1x1":
        return np.zeros((1, 1))
    d11, d21 = draw(_VALUE), draw(_VALUE)
    if kind == "2x2":
        return np.array([[d11, d21], [d21, draw(_VALUE)]])
    # det = d11*d22 - d21*d21 is exactly zero for both shapes.
    if draw(st.booleans()):
        return np.full((2, 2), d21)
    return np.array([[d11, 0.0], [0.0, 0.0]])


@seed(20240601)
@settings(max_examples=200)
@given(blocks=st.lists(_block(), min_size=1, max_size=12), k=st.integers(0, 4), data=st.data())
def test_block_diag_solve_matches_blockwise_reference(blocks, k, data):
    # k = 0 is a vector right-hand side, k >= 1 a matrix of k columns.
    n = sum(b.shape[0] for b in blocks)
    shape = (n,) if k == 0 else (n, k)
    size = n * max(k, 1)
    z = np.array(data.draw(st.lists(_VALUE, min_size=size, max_size=size))).reshape(shape)
    want, want_singular = _blockwise_reference(blocks, z)
    got, singular = block_diag_solve(BlockDiag(blocks), z)
    assert singular is want_singular
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


_UNIT = st.floats(-1.0, 1.0).filter(lambda v: abs(v) >= 1e-3)


@seed(20261022)
@settings(max_examples=200)
@given(
    entries=st.tuples(_UNIT, _UNIT, _UNIT),
    scale=st.sampled_from([1.0, 2.0**500, 2.0**-500]),
    m=st.integers(0, 40),
    draw_seed=st.integers(0, 2**32 - 1),
)
def test_factor_and_solve_agree_on_2x2_blocks(entries, scale, m, draw_seed):
    # The multipliers of a 2x2 pivot are the solve's D-solve of the pivot
    # columns below it: both run one kernel, so they agree bitwise, at any
    # scale that keeps the determinant normal.
    d11, d21, d22 = (v * scale for v in entries)
    det = det_2x2(d11, d21, d22)
    assume(abs(det) >= (1.0 - SBKP_ALPHA**2) * d21 * d21)
    a1, a2 = np.random.Generator(np.random.Philox(draw_seed)).standard_normal((2, m)) * scale
    c0, c1 = np.concatenate(([d11, d21], a1)), np.concatenate(([d21, d22], a2))
    lcols, dblock, _ = _block_multipliers(c0, c1, 0, SBKP_ALPHA)
    d = BlockDiag([dblock])
    w, singular = block_diag_solve(d, np.stack((a1, a2)))
    assert not singular
    assert lcols.tobytes() == w.T.tobytes()
    assert d.pair[3].tolist() == [det]


# -- full solves -------------------------------------------------------------


def test_identity_solve_is_exact():
    f = factor(np.eye(4), strategy="bkpp")
    b = np.array([1.0, -2.0, 3.0, 0.5])
    report = solve(f, b, a=np.eye(4))
    assert np.array_equal(report.x, b)
    assert not report.singular
    assert report.backward_error == 0.0


def test_exchange_solve_swaps_entries():
    a = np.eye(2)[::-1].copy()
    report = solve(factor(a, strategy="bkpp"), np.array([1.0, 2.0]))
    assert np.array_equal(report.x, [2.0, 1.0])
    assert report.backward_error is None  # no matrix supplied


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_round_trip_backward_error(strategy):
    a = random_symmetric(50, seed=2)
    x_true = np.random.Generator(np.random.Philox(3)).uniform(-1.0, 1.0, 50)
    b = a @ x_true
    report = solve(factor(a, strategy=strategy, seed=1), b, a=a)
    assert not report.singular
    assert report.backward_error <= 1e-12
    assert report.backward_error == backward_error(a, report.x, b)


def test_solve_rejects_a_of_another_size():
    f = factor(np.eye(4), strategy="bkpp")
    with pytest.raises(ValueError, match=r"A is 5 x 5, but x has shape \(4,\)"):
        solve(f, np.ones(4), a=np.eye(5))


def test_solve_many_inverts_the_matrix():
    a = random_symmetric(30, seed=5)
    f = factor(a, strategy="rcp", seed=0)
    x = solve_many(f, a)
    assert np.allclose(x, np.eye(30), atol=1e-10)


def test_solve_many_columns_match_single_solves():
    a = random_symmetric(20, seed=6)
    f = factor(a, strategy="bbk", b=4)
    rhs = np.random.Generator(np.random.Philox(7)).standard_normal((20, 3))
    many = solve_many(f, rhs)
    for j in range(3):
        assert np.allclose(many[:, j], solve(f, rhs[:, j]).x, rtol=1e-13, atol=0.0)


def _right_hand_sides(n: int) -> dict[str, np.ndarray]:
    c = np.random.Generator(np.random.Philox(8)).standard_normal((n, 5))
    c[0, 1] = -0.0
    read_only = c.copy()
    read_only.flags.writeable = False
    return {
        "C": c,
        "F": np.asfortranarray(c),
        "column": c[:, 2],
        "strided": c[:, ::2],
        "read-only": read_only,
        "integer": np.arange(n * 3).reshape(n, 3) - 7,
        "no columns": np.zeros((n, 0)),
    }


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("n", [1, 12])
def test_solves_leave_the_callers_right_hand_side_unchanged(strategy, n):
    # The BLAS solves overwrite the arrays the solve made; whatever the
    # caller's layout, dtype or writeability, its own array must not be one.
    a = random_symmetric(n, seed=4)
    f = factor(a, strategy=strategy)
    for name, b in _right_hand_sides(n).items():
        before = b.copy()
        # A vector is also solved as a one-column matrix viewing its data.
        mats = [b[:, None]] if b.ndim == 1 else [b]
        vecs = [b] if b.ndim == 1 else [b[:, j] for j in range(b.shape[1])]
        for rhs in mats:
            want = np.linalg.solve(a, rhs.astype(np.float64))
            got = solve_many(f, rhs)
            assert got.shape == rhs.shape, name
            assert np.allclose(got, want, rtol=1e-10, atol=1e-12), name
            assert got.tobytes() == solve_many(f, np.array(rhs, dtype=np.float64)).tobytes(), name
        for rhs in vecs:
            want = np.linalg.solve(a, rhs.astype(np.float64))
            got = solve(f, rhs).x
            assert np.allclose(got, want, rtol=1e-10, atol=1e-12), name
            assert got.tobytes() == solve(f, np.array(rhs, dtype=np.float64)).x.tobytes(), name
        assert b.dtype == before.dtype and b.tobytes() == before.tobytes(), name


def test_deficient_solve_flags_singular_and_stays_consistent():
    a = np.zeros((65, 65))
    a[:40, :40] = random_symmetric(40, seed=5)
    f = factor(a, strategy="rcp", p=6, seed=2)
    x_true = np.random.Generator(np.random.Philox(11)).uniform(-1.0, 1.0, 65)
    b = a @ x_true  # consistent: b lies in the range of the singular matrix
    report = solve(f, b, a=a)
    assert report.singular
    assert report.backward_error <= 1e-10


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_solve_rejects_non_finite_right_hand_side(bad):
    f = factor(random_symmetric(6, seed=1), strategy="bkpp")
    b = np.ones(6)
    b[3] = bad
    with pytest.raises(ValueError, match="NaN or Inf"):
        solve(f, b)
    with pytest.raises(ValueError, match="NaN or Inf"):
        solve_many(f, np.column_stack([np.ones(6), b]))


def test_solve_rejects_complex_right_hand_side():
    # The imaginary part would otherwise be dropped with only a warning.
    f = factor(random_symmetric(6, seed=1), strategy="bkpp")
    b = np.ones(6, dtype=np.complex128)
    with pytest.raises(ValueError, match="right-hand side must be real"):
        solve(f, b)
    with pytest.raises(ValueError, match="right-hand sides must be real"):
        solve_many(f, np.column_stack([b, b]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_factorization_rejects_non_finite_L(bad):
    L = np.eye(3)
    L[2, 0] = bad
    with pytest.raises(ValueError, match="NaN or Inf"):
        Factorization(
            perm=np.arange(3),
            L=L,
            D=BlockDiag([np.eye(1)] * 3),
            stats=GrowthStats(rho_cheap=1.0, max_multiplier=0.0),
        )


@pytest.mark.parametrize(
    "perm",
    [
        [0, 0, 2],
        [0, 1, 3],
        [-1, 1, 2],
        [0, 1],
        np.array([0.0, 1.0, 2.0]),
        np.array([0, 1, 2], dtype=np.uint64),
    ],
    ids=["repeat", "too-large", "negative", "short", "float", "uint64"],
)
def test_factorization_rejects_non_permutation(perm):
    # A float perm would index nothing, and bincount cannot take uint64.
    with pytest.raises(ValueError, match="not a permutation"):
        Factorization(
            perm=np.array(perm),
            L=np.eye(3),
            D=BlockDiag([np.eye(1)] * 3),
            stats=GrowthStats(rho_cheap=1.0, max_multiplier=0.0),
        )


@pytest.mark.parametrize("shape", [(6, 5), (5, 6), (36,), (6, 6, 1)], ids=str)
def test_factorization_rejects_non_square_L(shape):
    # Caught when built, not in the triangular solves.
    n = shape[0]
    with pytest.raises(ValueError, match=r"L must be a square 2-D array, got shape \("):
        Factorization(
            perm=np.arange(n),
            L=np.ones(shape),
            D=BlockDiag([np.eye(1)] * n),
            stats=GrowthStats(rho_cheap=1.0, max_multiplier=0.0),
        )


def test_factorization_rejects_D_of_wrong_size():
    # Caught when built, not first in solve.
    with pytest.raises(ValueError, match="D covers 2 rows, expected 3"):
        Factorization(
            perm=np.arange(3),
            L=np.eye(3),
            D=BlockDiag([np.eye(1)] * 2),
            stats=GrowthStats(rho_cheap=1.0, max_multiplier=0.0),
        )


_ZERO = np.zeros((1, 1))
_SINGULAR_PAIR = np.ones((2, 2))


@pytest.mark.parametrize(
    "blocks, deficient_from",
    [
        ([2 * np.eye(1)] * 3, 0),
        ([_ZERO, 2 * np.eye(1), _ZERO], 0),
        ([_ZERO, np.eye(2)], 1),
        ([_ZERO, np.eye(2)], 2),
        ([_ZERO, _SINGULAR_PAIR], 1),
        ([_ZERO] * 3, 3),
        ([_ZERO] * 3, -1),
        ([_ZERO] * 3, True),
        ([_ZERO] * 3, 1.5),
    ],
    ids=[
        "nonzero-1x1s", "nonzero-1x1-inside", "over-pair", "inside-pair",
        "over-singular-pair", "equal-to-n", "negative", "bool", "float",
    ],
)
def test_factorization_rejects_bad_deficient_from(blocks, deficient_from):
    # Every row from deficient_from on must be a zero 1x1 block; the first
    # case used to build, with its pattern saying the tail starts at 0.
    with pytest.raises(ValueError, match="deficient_from"):
        Factorization(
            perm=np.arange(3),
            L=np.eye(3),
            D=BlockDiag(blocks),
            stats=GrowthStats(rho_cheap=1.0, max_multiplier=0.0),
            deficient_from=deficient_from,
        )


@pytest.mark.parametrize(
    "blocks, deficient_from, pattern",
    [
        ([np.eye(1), np.eye(2)], None, [0, 1, 2]),
        ([np.eye(2), _ZERO], np.int64(2), [1, 2, 3]),
        ([_ZERO] * 3, 0, [3, 3, 3]),
    ],
    ids=["pair", "numpy-int-cut", "all-deficient"],
)
def test_factorization_derives_pattern(blocks, deficient_from, pattern):
    f = Factorization(
        perm=np.arange(3),
        L=np.eye(3),
        D=BlockDiag(blocks),
        stats=GrowthStats(rho_cheap=1.0, max_multiplier=0.0),
        deficient_from=deficient_from,
    )
    assert f.pattern.dtype == np.int8 and not f.pattern.flags.writeable
    assert np.array_equal(f.pattern, pattern)
    assert f.deficient_from == deficient_from
    assert deficient_from is None or type(f.deficient_from) is int


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_factorization_is_frozen(strategy):
    # The solve trusts the check made when the factorization was built, so
    # neither L, D, perm nor pattern may change afterwards.
    f = factor(random_symmetric(12, seed=3), strategy=strategy)
    d = f.D
    arrays = [f.L, *d.blocks, d.den, d.pair_rows, d.pair, d.zero_rows, d.starts2, f.perm, f.pattern]
    assert not any(x.flags.writeable for x in arrays)
    with pytest.raises(ValueError, match="read-only"):
        f.L[1, 0] = np.nan
    with pytest.raises(ValueError, match="read-only"):
        f.D.blocks[0][0, 0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        f.perm[0] = f.perm[1]
    with pytest.raises(dataclasses.FrozenInstanceError):
        f.L = np.full((12, 12), np.nan)


def test_factorization_compares_and_hashes_by_identity():
    # Its ndarray fields cannot be compared as a tuple, so == and hash
    # are those of the object.
    f, g = (factor(np.diag([1.0, 2.0, 3.0])) for _ in range(2))
    assert f == f
    assert f != g
    assert {f} == {f} and len({f, g}) == 2


def test_solve_validation():
    f = factor(np.eye(3), strategy="bkpp")
    with pytest.raises(ValueError, match="right-hand side"):
        solve(f, np.zeros(4))
    with pytest.raises(ValueError, match="right-hand sides"):
        solve_many(f, np.zeros(3))
    with pytest.raises(ValueError, match="right-hand sides"):
        solve_many(f, np.zeros((4, 2)))
