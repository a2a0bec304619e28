"""Norms, growth factors, sketch-size budgets, and backward error."""

import math

import numpy as np
import pytest

from randldl import factor
from randldl.metrics import (
    GrowthStats,
    OpCounters,
    backward_error,
    growth_from_snapshots,
    jl_required_p,
    norm_1_2,
    norm_1_inf,
    schur_snapshots,
)
from helpers import random_symmetric


# -- norms ---------------------------------------------------------------


def test_norms_known_values():
    m = np.array([[1.0, 2.0], [-3.0, 4.0]])
    assert norm_1_inf(m) == 4.0
    assert norm_1_2(m) == pytest.approx(math.sqrt(20.0), rel=1e-15)


def test_norms_of_empty_inputs():
    assert norm_1_inf(np.zeros((0, 0))) == 0.0
    assert norm_1_2(np.zeros((0, 0))) == 0.0


# -- growth --------------------------------------------------------------


def test_growth_from_snapshots_known_value():
    rho_elem, rho_col = growth_from_snapshots([(1.0, 1.0), (99.99, 2.0), (3.0, 0.5)])
    assert rho_elem == 99.99
    assert rho_col == 2.0


def test_growth_from_snapshots_validation():
    with pytest.raises(ValueError, match="at least one"):
        growth_from_snapshots([])
    with pytest.raises(ValueError, match="zero"):
        growth_from_snapshots([(0.0, 1.0), (1.0, 1.0)])


def test_element_and_column_growth_sandwich():
    # For an n x n matrix the largest entry and the largest column norm are
    # within sqrt(n) of each other, so the two growth factors are too.
    for seed in range(3):
        a = random_symmetric(40, seed=seed)
        f = factor(a, strategy="rcp", p=5, seed=seed)
        rho_elem, rho_col = growth_from_snapshots(schur_snapshots(a, f))
        root_n = math.sqrt(40.0)
        assert rho_elem / root_n <= rho_col * (1.0 + 1e-12)
        assert rho_col <= root_n * rho_elem * (1.0 + 1e-12)


# -- sketch-size budget ----------------------------------------------------


def test_required_sketch_size_known_values():
    assert jl_required_p(1000, 0.5, 0.05) == 538
    assert jl_required_p(1, 0.5, 0.5) == 45


def test_required_sketch_size_monotone_in_n():
    sizes = [jl_required_p(n, 0.5, 0.05) for n in (10, 100, 1000, 10000)]
    assert sizes == sorted(sizes)


def test_required_sketch_size_validation():
    with pytest.raises(ValueError, match="n"):
        jl_required_p(0, 0.5, 0.5)
    for bad in (2.5, True, 10.0, "10"):
        with pytest.raises(ValueError, match=r"^n must be an integer"):
            jl_required_p(bad, 0.5, 0.05)
    assert jl_required_p(np.int64(1000), 0.5, 0.05) == 538
    with pytest.raises(ValueError, match="epsilon"):
        jl_required_p(10, 1.0, 0.5)
    with pytest.raises(ValueError, match="delta"):
        jl_required_p(10, 0.5, 0.0)


# -- counters and backward error -----------------------------------------


def test_op_counters_total():
    c = OpCounters(mults=2, adds=3, divs=5, comps=100)
    assert c.total_flops() == 10


def test_growth_stats_defaults():
    stats = GrowthStats(rho_cheap=1.0, max_multiplier=0.0)
    assert stats.sketch_drift is None and stats.recompute_count == 0
    assert stats.counters.total_flops() == 0


def test_backward_error_known_values():
    a = np.array([[2.0, 0.0], [0.0, 2.0]])
    assert backward_error(a, np.array([1.0, 1.0]), np.array([2.0, 2.0])) == 0.0
    # residual 1, |A|_inf = 2, |x|_inf = 1
    assert backward_error(a, np.array([1.0, 1.0]), np.array([2.0, 3.0])) == 0.5


def test_backward_error_zero_conventions():
    a = np.zeros((2, 2))
    zero = np.zeros(2)
    assert backward_error(a, zero, zero) == 0.0
    assert backward_error(a, zero, np.array([1.0, 0.0])) == math.inf


@pytest.mark.parametrize(
    "x_len,b_len,message",
    [(3, 2, r"x has shape \(3,\)"), (2, 3, r"b has shape \(3,\)"), (2, 1, r"b has shape \(1,\)")],
    ids=["x", "b", "b-broadcast"],
)
def test_backward_error_checks_sizes_against_a(x_len, b_len, message):
    # A b of length 1 would broadcast against A x instead of failing.
    with pytest.raises(ValueError, match=rf"^A is 2 x 2, but {message}$"):
        backward_error(np.eye(2), np.ones(x_len), np.ones(b_len))


@pytest.mark.parametrize("name", ["A", "x", "b"])
def test_backward_error_rejects_complex_input(name):
    args = {"A": np.eye(2), "x": np.ones(2), "b": np.ones(2)}
    args[name] = args[name] + 1j
    with pytest.raises(ValueError, match=rf"^{name} must be real"):
        backward_error(args["A"], args["x"], args["b"])
