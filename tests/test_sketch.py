"""Gaussian sketching inside factor: reproducible draws, downdates, column selection."""

import numpy as np
import pytest

from randldl import PAT_PAIR_START, FactorConfig, factor, factor_robust
from randldl.core import column_norms
from randldl.factor import _Engine
from randldl.gallery import MatrixSpec, generate
from randldl.sketch import partial_qrcp
from helpers import random_symmetric


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


def test_sketch_state_needs_positive_p():
    a = random_symmetric(4, seed=0)
    with pytest.raises(ValueError, match="positive"):
        factor(a, p=0)
    with pytest.raises(ValueError, match="positive"):
        factor_robust(a, p=0)


# -- downdates and recomputation ------------------------------------------


def test_update_sketch_known_value():
    # One 1x1 step on the 4 gives l21 = [1, -1], so the downdate
    # b2 - b1 @ l21.T turns b1 = [[-6]], b2 = [[3, 5]] into [[9, -1]].
    a = np.array([[4.0, 4.0, -4.0], [4.0, 9.0, -1.0], [-4.0, -1.0, 9.0]])
    engine = _Engine(a, FactorConfig(p=1, b=1, seed=0))
    engine.B = np.array([[-6.0, 3.0, 5.0]])
    engine._run_panel()  # one panel of width b=1 is one step
    assert engine.k == 1
    assert np.array_equal(engine.perm, [0, 1, 2])
    assert np.array_equal(engine.L[1:, 0], [1.0, -1.0])
    assert np.array_equal(engine.B[:, 1:], [[9.0, -1.0]])


def test_update_sketch_matches_projected_schur_complement():
    # The audit keeps Omega and compares the downdated sketch with Omega
    # applied to each Schur complement.  A zero diagonal makes the first
    # pivot 2x2, so both downdate shapes are checked.
    a = random_symmetric(9, seed=3)
    np.fill_diagonal(a, 0.0)
    f = factor(a, p=3, audit_sketch=True, seed=0)
    assert f.pattern[0] == PAT_PAIR_START
    drift = f.stats.sketch_drift
    assert len(drift) == len(f.D.blocks) - 1  # every step but the last
    assert max(drift) <= 1e-14


def test_recompute_advances_stream_and_counts():
    # Here the guard trips once, the fresh sketch does not confirm the
    # collapse, and the remaining pivots follow that fresh sketch.  It is
    # drawn from the seeded stream too, so a rerun repeats it exactly.
    a = generate(MatrixSpec(family="type10", n=80, seed=0))
    f1 = factor_robust(a, p=5, seed=0)
    f2 = factor_robust(a, p=5, seed=0)
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
