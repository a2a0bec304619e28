"""Matrix gallery families."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import randldl
from randldl.core import is_exactly_symmetric
from randldl.gallery import FAMILIES, MatrixSpec, generate
from randldl.pivot import BK_ALPHA


def gen(family, n, **kwargs):
    return generate(MatrixSpec(family=family, n=n, **kwargs))


def test_family_registry():
    assert FAMILIES == {f"type{i}" for i in (1, 2, 3, 4, 5, 6, 7, 8, 10)}
    with pytest.raises(ValueError, match="unknown family"):
        gen("type11", n=4)
    with pytest.raises(ValueError, match="positive"):
        gen("type4", n=0)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n": 0},
        {"n": -3},
        {"n": 4.0},
        {"n": True},
        {"n": None},
        {"seed": -1},
        {"seed": 1.0},
        {"seed": False},
        {"family": None},
        {"family": 7},
        {"family": "type11"},
    ],
    ids=[
        "n-zero", "n-negative", "n-float", "n-bool", "n-none", "seed-negative",
        "seed-float", "seed-bool", "family-none", "family-int", "family-unknown",
    ],
)
def test_spec_validation(kwargs):
    # Each failure names the field it rejects.
    fields = {"family": "type7", "n": 12, **kwargs}
    with pytest.raises(ValueError, match=rf"\b{next(iter(kwargs))}\b"):
        MatrixSpec(**fields)


def test_spec_stores_numpy_integers_as_int():
    spec = MatrixSpec("type7", np.int64(12), seed=np.uint8(3))
    assert [type(spec.n), type(spec.seed)] == [int, int]
    assert (spec.n, spec.seed) == (12, 3)
    assert np.array_equal(generate(spec), gen("type7", n=12, seed=3))


def test_spec_is_family_n_and_seed():
    # A matrix is named by these three fields alone; the family is stored
    # lower-case.
    assert [f.name for f in dataclasses.fields(MatrixSpec)] == ["family", "n", "seed"]
    spec = MatrixSpec("TYPE1", 12)
    assert spec.family == "type1"
    assert np.array_equal(generate(spec), gen("type1", n=12))
    for knob in ("epsilon", "n1", "n2"):
        with pytest.raises(TypeError, match=knob):
            MatrixSpec("type1", 12, **{knob: 1})


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_every_family_is_dense_float64_and_exactly_symmetric(family):
    # The contract factor relies on, and a fixed seed gives the same matrix.
    a = gen(family, n=12, seed=4)
    assert a.shape == (12, 12) and a.dtype == np.float64
    assert np.isfinite(a).all() and is_exactly_symmetric(a)
    assert np.array_equal(a, gen(family, n=12, seed=4))


# -- growth-trap family ------------------------------------------------------


def test_growth_trap_structure():
    n, m = 12, 6
    a = gen("type1", n=n)
    assert is_exactly_symmetric(a)
    diag = np.diag(a)[: m - 2]
    assert diag[0] == -BK_ALPHA
    # Second diagonal entry is exactly -1/4 in exact arithmetic.
    assert abs(diag[1] + 0.25) <= 1e-13
    # Decaying diagonal follows -alpha * q**(-i) to rounding.
    q = 1.0 + 1.0 / BK_ALPHA
    formula = -BK_ALPHA * q ** -np.arange(m - 2, dtype=np.float64)
    assert np.allclose(diag, formula, rtol=1e-12)
    # All-ones rows and columns close off the leading block.
    assert np.all(a[:m, m - 2 : m] == 1.0)
    assert np.all(a[m - 2 : m, :m] == 1.0)
    # Identity coupling into the trailing block.
    assert np.array_equal(a[:m, m:], (1.0 - 1e-8) * np.eye(m))
    assert np.array_equal(a[m:, m:], np.zeros((m, m)))


@pytest.mark.parametrize("n", [5, 4, 2])
def test_growth_trap_needs_even_n_at_least_six(n):
    with pytest.raises(ValueError, match="even n >= 6"):
        gen("type1", n=n)


# -- banded-plus-corner family -------------------------------------------------


def test_corner_band_structure():
    n = 8
    a = gen("type2", n=n)
    assert is_exactly_symmetric(a)
    assert a[1, 1] == 8.0 and np.trace(a) == 8.0
    assert a[0, 1] == 0.0
    assert a[1, 2] == 8.0 and a[2, 3] == 7.0 and a[6, 7] == 3.0
    assert a[0, 7] == 2.0
    with pytest.raises(ValueError, match="n >= 3"):
        gen("type2", n=2)


# -- structured dense families ---------------------------------------------------


def test_random_hankel_has_constant_antidiagonals():
    a = gen("type3", n=6, seed=3)
    assert is_exactly_symmetric(a)
    for i in range(5):
        assert a[i, 3] == a[i + 1, 2]
    assert np.array_equal(a, gen("type3", n=6, seed=3))
    assert not np.array_equal(a, gen("type3", n=6, seed=4))


def test_sine_transform_is_orthogonal():
    a = gen("type4", n=16)
    assert is_exactly_symmetric(a)
    assert np.allclose(a @ a, np.eye(16), atol=1e-12)
    assert gen("type4", n=3)[0, 0] == pytest.approx(0.5, rel=1e-14)


def test_cosine_family_first_row_is_ones():
    a = gen("type5", n=7)
    assert is_exactly_symmetric(a)
    assert np.array_equal(a[0], np.ones(7))
    assert a[1, 1] == pytest.approx(np.cos(np.pi / 6.0), rel=1e-14)
    with pytest.raises(ValueError, match="n >= 2"):
        gen("type5", n=1)


def test_dense_gaussian_family():
    a = gen("type6", n=20, seed=1)
    assert is_exactly_symmetric(a)
    assert np.array_equal(a, gen("type6", n=20, seed=1))
    assert not np.array_equal(a, gen("type6", n=20, seed=2))


# -- bordered (saddle-point) families ----------------------------------------------


def test_bordered_family_zero_corner():
    a = gen("type7", n=12, seed=0)
    assert is_exactly_symmetric(a)
    n2 = 12 // 4
    assert np.array_equal(a[-n2:, -n2:], np.zeros((n2, n2)))
    assert np.abs(a[: 12 - n2, : 12 - n2]).max() > 0.0


@pytest.mark.parametrize("family", ["type7", "type8"])
def test_bordered_families_border_n_over_four_rows(family):
    a = gen(family, n=4, seed=0)  # the smallest border: one row
    assert a[3, 3] == 0.0 and np.abs(a[3, :3]).min() > 0.0
    for n in (1, 2, 3):
        with pytest.raises(ValueError, match=rf"{family} requires n >= 4, got {n}"):
            gen(family, n=n)


def test_bordered_identity_family():
    a = gen("type8", n=12, seed=4)
    assert is_exactly_symmetric(a)
    assert np.array_equal(a[:9, :9], np.eye(9))
    assert np.array_equal(a[9:, 9:], np.zeros((3, 3)))


# -- rank-deficient family ----------------------------------------------------------


def test_low_rank_family_is_negative_semidefinite_and_low_rank():
    a = gen("type10", n=120, seed=0)
    assert is_exactly_symmetric(a)
    scale = np.abs(a).max()
    assert np.linalg.eigvalsh(a).max() <= 1e-10 * scale
    s = np.linalg.svd(a, compute_uv=False)
    assert s[55] <= 1e-12 * s[0]  # numerical rank stays bounded near 55
    assert np.array_equal(a, gen("type10", n=120, seed=0))


# -- import cost --------------------------------------------------------------------


def test_import_leaves_scipy_io_unloaded():
    # perfbench times "import randldl" inside setup_s; neither subpackage is
    # needed to factor, solve or build a family.
    src = Path(randldl.__file__).resolve().parent.parent
    probe = "import sys, randldl; print([m in sys.modules for m in ('scipy.io', 'scipy.sparse')])"
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[False, False]"
