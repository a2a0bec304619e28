"""Gaussian sketching inside factor: reproducible draws, downdates, column selection."""

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from randldl import PAT_PAIR_START, FactorConfig, factor
from randldl.core import column_norms
from randldl.factor import _Engine, partial_qrcp
from randldl.gallery import MatrixSpec, generate
from helpers import random_symmetric, reference_partial_qrcp


# -- random draws --------------------------------------------------------


def test_draws_are_reproducible():
    # A strongly diagonal matrix accepts every sketch-chosen column as a 1x1
    # pivot, so the first pivot is the largest column of the sketch the
    # engine draws: p rows of the Philox stream seeded with ``seed``.
    n, p, seed = 12, 5, 7
    a = np.diag(np.arange(1.0, n + 1.0) * 10.0) + 0.01 * random_symmetric(n, seed=1)
    omega = np.random.Generator(np.random.Philox(seed)).standard_normal((p, n))
    expect = int(np.argmax(column_norms(omega @ a)))
    first = factor(a, p=p, seed=seed, b=1)
    again = factor(a, p=p, seed=seed, b=1)
    assert first.perm[0] == expect
    assert np.array_equal(first.perm, again.perm)


def test_different_seeds_differ():
    a = random_symmetric(50, seed=4)
    assert not np.array_equal(factor(a, seed=1).perm, factor(a, seed=2).perm)


def test_sketch_state_initialize_projects():
    # Before the first step the engine holds B = Omega @ A, with Omega the
    # first p x n draws of the Philox stream seeded with ``seed``.
    a = random_symmetric(6, seed=2)
    engine = _Engine(a, FactorConfig(p=2, seed=5))
    omega = np.random.Generator(np.random.Philox(5)).standard_normal((2, 6))
    assert np.array_equal(engine.B, omega @ a)


@pytest.mark.parametrize("case", ["set-up", "fresh", "gather"])
def test_project_reads_each_omega_factor_passes(case):
    # factor projects the whole omega at set-up, against the padded
    # column-major copy of A; and, against a column-major copy of the active
    # block, the guard's fresh (p, m) draw and the audit's np.take gather of
    # the label-ordered omega into position order.  On small integers every
    # product is exact: the sketch must be NumPy's bitwise, returned
    # row-major.
    rng = np.random.default_rng(3)
    n, p, k = 12, 3, 5
    omega = rng.integers(-4, 5, (p, n)).astype(np.float64)
    if case == "set-up":
        a = rng.integers(-4, 5, (n, n + 8)).astype(np.float64).T[:n]
    else:
        a = np.asfortranarray(rng.integers(-4, 5, (n - k, n - k)).astype(np.float64))
        labels = rng.permutation(n)[k:]
        omega = omega[:, k:].copy() if case == "fresh" else np.take(omega, labels, axis=1)
    got = _Engine._project(omega, a)
    assert got.flags.c_contiguous
    assert np.array_equal(got, omega @ a)


def test_sketch_state_needs_positive_p():
    a = random_symmetric(4, seed=0)
    with pytest.raises(ValueError, match="positive"):
        factor(a, p=0)


@pytest.mark.parametrize("e", [-900, -600, -300, 0, 300, 600, 900])
def test_sketch_pivot_is_scale_invariant(e):
    # Sums of squares of 2**e * B overflow or underflow at |e| >= 600, where
    # column_norms sums them again after a power-of-two rescaling; the norms
    # are then 2**e times those of B, and the engine picks the same column.
    a = random_symmetric(40, seed=4)
    base = _Engine(a, FactorConfig(p=8, seed=1, robust_r=0))
    scaled = _Engine(a, FactorConfig(p=8, seed=1, robust_r=0))
    scaled.B[...] = base.B * 2.0**e
    assert np.array_equal(column_norms(scaled.B), column_norms(base.B) * 2.0**e)
    assert scaled._sketch_pivot() == base._sketch_pivot()


# -- downdates and recomputation ------------------------------------------


@pytest.mark.parametrize("q", [1, 4])
def test_sketch_is_one_row_major_view_of_its_buffer(q):
    # Whatever q, B is row-major and read back from the Buffer dgemm writes
    # through, so every downdate and correction reaches the norms, and it
    # cannot be rebound to an array dgemm would not see.
    a = random_symmetric(40, seed=3)
    cfg = FactorConfig(p=4, b=4, q=q, seed=2)
    engine = _Engine(a, cfg)

    def check_view():
        assert engine.B.flags.c_contiguous
        assert np.shares_memory(engine.B, engine.buf_B.array)
        with pytest.raises(AttributeError):
            engine.B = engine.B.copy()

    check_view()
    got = engine.run()
    check_view()
    want = factor(a, cfg)
    assert np.array_equal(got.perm, want.perm)
    assert np.array_equal(got.L, want.L)
    assert np.array_equal(got.pattern, want.pattern)
    assert np.array_equal(got.D.to_dense(), want.D.to_dense())


def test_update_sketch_known_value():
    # One 1x1 step on the 4 gives l21 = [1, -1], so the downdate
    # b2 - b1 @ l21.T turns b1 = [[-6]], b2 = [[3, 5]] into [[9, -1]].
    a = np.array([[4.0, 4.0, -4.0], [4.0, 9.0, -1.0], [-4.0, -1.0, 9.0]])
    engine = _Engine(a, FactorConfig(p=1, b=1, seed=0))
    engine.B[...] = [[-6.0, 3.0, 5.0]]
    engine._run_panel()  # one panel of width b=1 is one step
    assert engine.k == 1
    assert np.array_equal(engine.perm, [0, 1, 2])
    assert np.array_equal(engine.A[1:, 0], [1.0, -1.0])  # L's column, in A
    assert np.array_equal(engine.B[:, 1:], [[9.0, -1.0]])


def _panel_ends(sizes: list[int], b: int) -> list[int]:
    """Where each panel of width b ends, replayed from the pivot block sizes.

    A panel ends when it is full, or before a 2x2 block that would overflow
    it; a 2x2 block may fill a panel of width 1 on its own.
    """
    ends, k, t = [], 0, 0
    for s in sizes:
        if t > 0 and t + s > b:
            ends.append(k)
            t = 0
        k, t = k + s, t + s
        if t >= b:
            ends.append(k)
            t = 0
    return ends


def _zero_diagonal(a: np.ndarray) -> np.ndarray:
    np.fill_diagonal(a, 0.0)
    return a


@pytest.mark.parametrize(
    "a, p, b, q, bound",
    [
        (_zero_diagonal(random_symmetric(9, seed=3)), 3, 1, 1, 1e-14),
        (_zero_diagonal(random_symmetric(40, seed=3)), 8, 8, 8, 1e-12),
        (generate(MatrixSpec("type6", 200)), 16, 16, 16, 1e-12),
    ],
    ids=["b=1", "zero-diagonal-q=b=8", "type6-q=b=16"],
)
def test_update_sketch_matches_projected_schur_complement(a, p, b, q, bound):
    # The audit keeps Omega and compares the downdated sketch with Omega
    # applied to each Schur complement, at every panel end that leaves a
    # trailing block: after each step with q = 1 and b = 1, after each
    # panel's one correction with q = b.  Each input's first pivot is 2x2,
    # so both downdate shapes are checked.
    f = factor(a, p=p, b=b, q=q, audit_sketch=True, seed=0)
    assert f.pattern[0] == PAT_PAIR_START
    drift = f.stats.sketch_drift
    sizes = [blk.shape[0] for blk in f.D.blocks]
    assert len(drift) == len([e for e in _panel_ends(sizes, b) if e < f.n])
    assert max(drift) <= bound


def test_recompute_advances_stream_and_counts():
    # Here the guard trips once, the fresh sketch does not confirm the
    # collapse, and the remaining pivots follow that fresh sketch.  It is
    # drawn from the seeded stream too, so a rerun repeats it exactly.
    a = generate(MatrixSpec(family="type10", n=80, seed=0))
    f1 = factor(a, p=5, seed=0)
    f2 = factor(a, p=5, seed=0)
    assert f1.stats.recompute_count == f2.stats.recompute_count == 1
    assert f1.deficient_from is None
    assert np.array_equal(f1.perm, f2.perm)
    assert np.array_equal(f1.L, f2.L)


# -- column selection ----------------------------------------------------


def test_partial_qrcp_selects_largest_then_residual():
    b = np.array([[0.0, 5.0], [0.0, 0.0]])
    assert partial_qrcp(b, 2) == [1, 0]


def test_partial_qrcp_tie_breaks_to_lowest_index():
    assert partial_qrcp(np.array([[1.0, 1.0]]), 1) == [0]


def test_partial_qrcp_first_pick_is_argmax():
    gen = np.random.Generator(np.random.Philox(11))
    for _ in range(10):
        b = gen.standard_normal((4, 9))
        assert partial_qrcp(b, 1) == [int(np.argmax(column_norms(b)))]


def test_partial_qrcp_selection_is_distinct_and_in_range():
    gen = np.random.Generator(np.random.Philox(13))
    b = gen.standard_normal((5, 8))
    sel = partial_qrcp(b, 5)
    assert len(set(sel)) == 5
    assert all(0 <= j < 8 for j in sel)


def test_partial_qrcp_does_not_modify_input():
    gen = np.random.Generator(np.random.Philox(17))
    b = gen.standard_normal((3, 5))
    before = b.copy()
    partial_qrcp(b, 3)
    assert np.array_equal(b, before)


def test_partial_qrcp_validation():
    with pytest.raises(ValueError, match="2-D"):
        partial_qrcp(np.zeros(3), 1)
    with pytest.raises(ValueError, match="q="):
        partial_qrcp(np.zeros((2, 3)), 3)
    with pytest.raises(ValueError, match="q="):
        partial_qrcp(np.zeros((2, 3)), 0)
    # The cast would drop the imaginary part and select column 1.
    with pytest.raises(ValueError, match="b must be real, got complex input"):
        partial_qrcp([[1 + 2j, 3], [0, 1]], 1)


def _gaussian_sketch(draw_seed: int, p: int, m: int) -> np.ndarray:
    return np.random.Generator(np.random.Philox(draw_seed)).standard_normal((p, m))


@seed(20261018)
@settings(max_examples=150)
@given(
    draw_seed=st.integers(0, 2**32 - 1),
    p=st.integers(1, 10),
    m=st.integers(1, 12),
    e=st.integers(-1000, 1000),
)
def test_partial_qrcp_is_scale_invariant(draw_seed, p, m, e):
    # Scaling by a power of two is exact, and the selection compares scaled
    # norms, so c * B picks the same columns as B at every q.
    b = _gaussian_sketch(draw_seed, p, m)
    c = 2.0**e
    for q in range(1, min(p, m) + 1):
        assert partial_qrcp(c * b, q) == partial_qrcp(b, q)


@seed(20261019)
@settings(max_examples=150)
@given(
    draw_seed=st.integers(0, 2**32 - 1),
    p=st.integers(1, 10),
    m=st.integers(1, 12),
    data=st.data(),
)
def test_partial_qrcp_matches_reference_loop(draw_seed, p, m, data):
    # On unit-scale sketches, wide (p < m) and tall (p > m), the LAPACK
    # selection equals the greedy Python Householder loop's.
    q = data.draw(st.integers(1, min(p, m)))
    b = _gaussian_sketch(draw_seed, p, m)
    assert partial_qrcp(b, q) == reference_partial_qrcp(b, q)


def test_panel_preselect_replays_selection_as_symmetric_swaps():
    # A q = b panel swaps its selected columns to the front in selection
    # order, permuting the active lower triangle and the sketch alike.
    a = random_symmetric(40, seed=6)
    engine = _Engine(a, FactorConfig(p=16, b=16, q=16, seed=3))
    b0 = engine.B.copy()
    engine._panel_preselect(16)
    perm = engine.perm
    assert list(perm[:16]) == partial_qrcp(b0, 16)
    assert np.array_equal(np.tril(engine.A), np.tril(a[np.ix_(perm, perm)]))
    assert np.array_equal(engine.B, b0[:, perm])
