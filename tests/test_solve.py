"""Solve phase: substitution pipeline, singular handling, backward error."""

import numpy as np
import pytest

from randldl import (
    BlockDiag,
    backward_error,
    factor,
    factor_robust,
    solve,
    solve_many,
)
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


def test_deficient_solve_flags_singular_and_stays_consistent():
    a = np.zeros((65, 65))
    a[:40, :40] = random_symmetric(40, seed=5)
    f = factor_robust(a, strategy="rcp", p=6, seed=2)
    x_true = np.random.Generator(np.random.Philox(11)).uniform(-1.0, 1.0, 65)
    b = a @ x_true  # consistent: b lies in the range of the singular matrix
    report = solve(f, b, a=a)
    assert report.singular
    assert report.backward_error <= 1e-10


def test_solve_validation():
    f = factor(np.eye(3), strategy="bkpp")
    with pytest.raises(ValueError, match="right-hand side"):
        solve(f, np.zeros(4))
    with pytest.raises(ValueError, match="right-hand sides"):
        solve_many(f, np.zeros(3))
    with pytest.raises(ValueError, match="right-hand sides"):
        solve_many(f, np.zeros((4, 2)))
