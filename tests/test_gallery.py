"""Matrix gallery families and Matrix Market file I/O."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import randldl
from randldl.core import is_exactly_symmetric
from randldl.gallery import (
    FAMILIES,
    MAX_FILE_DIM,
    MatrixSpec,
    generate,
    load_matrix_market,
    save_matrix_market,
)
from randldl.pivot import BK_ALPHA


def gen(family, n=0, **kwargs):
    return generate(MatrixSpec(family=family, n=n, **kwargs))


def test_family_registry():
    assert FAMILIES == {f"type{i}" for i in range(1, 11)}
    with pytest.raises(ValueError, match="unknown family"):
        gen("type11", n=4)
    with pytest.raises(ValueError, match="positive"):
        gen("type4", n=0)


# -- growth-trap family ------------------------------------------------------


def test_growth_trap_structure():
    n, m = 12, 6
    a = gen("type1", n=n, epsilon=1e-8)
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


def test_bordered_family_explicit_split():
    a = gen("type7", n=10, seed=0, n2=3)
    assert np.array_equal(a[7:, 7:], np.zeros((3, 3)))
    with pytest.raises(ValueError, match="n1 \\+ n2"):
        gen("type7", n=10, seed=0, n1=5, n2=3)
    with pytest.raises(ValueError, match="n1 >= 1"):
        gen("type7", n=10, seed=0, n2=10)


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


# -- Matrix Market I/O ---------------------------------------------------------------


def write_mm(tmp_path, text, name="m.mtx"):
    path = tmp_path / name
    path.write_text(text, encoding="ascii")
    return str(path)


def test_load_coordinate_symmetric(tmp_path):
    path = write_mm(
        tmp_path,
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "% a comment line\n"
        "2 2 2\n"
        "1 1 1.0\n"
        "2 1 2.0\n",
    )
    assert np.array_equal(load_matrix_market(path), [[1.0, 2.0], [2.0, 0.0]])


def test_load_mirrors_upper_triangle_entries(tmp_path):
    path = write_mm(
        tmp_path, "%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 4.0\n1 2 1.5\n"
    )
    assert np.array_equal(load_matrix_market(path), [[4.0, 1.5], [1.5, 0.0]])


def test_load_is_case_insensitive_and_skips_blanks(tmp_path):
    # The banner itself must be exact, as in the reference reader mmio.c.
    path = write_mm(
        tmp_path,
        "%%MatrixMarket MATRIX Coordinate INTEGER Symmetric\n\n1 1 1\n1 1 3\n",
    )
    a = load_matrix_market(path)
    assert a.dtype == np.float64
    assert np.array_equal(a, [[3.0]])


def test_load_coordinate_general_requires_exact_symmetry(tmp_path):
    good = write_mm(
        tmp_path,
        "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n1 2 2.0\n2 1 2.0\n",
        name="good.mtx",
    )
    assert np.array_equal(load_matrix_market(good), [[1.0, 2.0], [2.0, 0.0]])
    bad = write_mm(
        tmp_path,
        "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 2 5.0\n2 1 6.0\n",
        name="bad.mtx",
    )
    with pytest.raises(ValueError, match="symmetric"):
        load_matrix_market(bad)


def test_load_array_formats(tmp_path):
    packed = write_mm(
        tmp_path,
        "%%MatrixMarket matrix array real symmetric\n2 2\n1.0\n2.0\n3.0\n",
        name="packed.mtx",
    )
    assert np.array_equal(load_matrix_market(packed), [[1.0, 2.0], [2.0, 3.0]])
    full = write_mm(
        tmp_path,
        "%%MatrixMarket matrix array real general\n2 2\n1.0\n2.0\n2.0\n3.0\n",
        name="full.mtx",
    )
    assert np.array_equal(load_matrix_market(full), [[1.0, 2.0], [2.0, 3.0]])


@pytest.mark.parametrize(
    "text,match",
    [
        ("%%MatrixMarket matrix coordinate complex symmetric\n1 1 1\n1 1 1.0\n", "field"),
        ("%%MatrixMarket matrix coordinate pattern symmetric\n1 1 1\n1 1\n", "field"),
        ("%%MatrixMarket matrix coordinate real hermitian\n1 1 1\n1 1 1.0\n", "symmetry"),
        ("%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 1\n2 1 1.0\n", "symmetry"),
        (
            "%%MatrixMarket matrix ellpack real general\n1 1 1\n1 1 1.0\n",
            "Invalid MatrixMarket header element: ellpack",
        ),
        ("%%MatrixMarket tensor coordinate real general\n1 1 1\n1 1 1.0\n", "header"),
        ("%%matrixmarket matrix coordinate real symmetric\n1 1 1\n1 1 1.0\n", "banner"),
        ("%%MatrixMarket matrix coordinate real symmetric\n2 3 1\n1 1 1.0\n", "square"),
        ("%%MatrixMarket matrix coordinate real symmetric\n0 0 0\n", "dimension"),
        ("%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 1.0\n", "Truncated file"),
        (
            "%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n3 1 1.0\n",
            "Row index out of bounds",
        ),
        (
            "%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 1.0\n1 1 2.0\n",
            "duplicate",
        ),
        (
            "%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n2 1 1.0\n1 2 2.0\n",
            "duplicate",
        ),
        ("%%MatrixMarket matrix array real symmetric\n2 2\n1.0\n2.0\n", "values"),
        ("%%MatrixMarket matrix array real symmetric\n2 2\n", "values"),
        ("%%MatrixMarket matrix array real symmetric\n2 2\n1.0\n", "values"),
        ("%%MatrixMarket matrix array real general\n2 2\n1.0\n2.0\n3.0\n4.0\n", "symmetric"),
        (
            "%%MatrixMarket matrix coordinate real symmetric\n1 1 1\n1 1 1.0 2.0\n",
            "line 3 holds 4 values, expected 3",
        ),
        (
            "%%MatrixMarket matrix array real symmetric\n2 2\n1.0 9.0\n2.0\n3.0\n",
            "line 3 holds 2 values, expected 1",
        ),
    ],
    ids=[
        "complex-field",
        "pattern-field",
        "hermitian",
        "skew-symmetric",
        "bad-format",
        "bad-header",
        "lowercase-banner",
        "rectangular",
        "zero-dim",
        "missing-entries",
        "index-range",
        "duplicate",
        "duplicate-mirrored",
        "array-count",
        "array-no-values",
        "array-one-value",
        "array-asymmetric",
        "coordinate-extra-token",
        "array-extra-token",
    ],
)
def test_load_rejects_malformed_files(tmp_path, text, match):
    path = write_mm(tmp_path, text)
    with pytest.raises(ValueError, match=match) as info:
        load_matrix_market(path)
    assert str(info.value).startswith(f"{path}: ")


def test_load_enforces_dimension_cap(tmp_path):
    path = write_mm(
        tmp_path, "%%MatrixMarket matrix coordinate real symmetric\n6 6 0\n"
    )
    with pytest.raises(ValueError, match="dimension"):
        load_matrix_market(path, max_dim=5)
    assert MAX_FILE_DIM == 10000
    # Rejected from the header alone: reading on would allocate 10^16 entries.
    huge = write_mm(
        tmp_path,
        "%%MatrixMarket matrix coordinate real symmetric\n100000000 100000000 0\n",
        name="huge.mtx",
    )
    with pytest.raises(ValueError, match="dimension"):
        load_matrix_market(huge)


EXTREMES = np.array(
    [
        [5e-324, -0.1, 0.0],
        [-0.1, 1.7976931348623157e308, -1.7976931348623157e308],
        [0.0, -1.7976931348623157e308, -0.1],
    ]
)


def test_save_load_round_trip_is_bitwise(tmp_path):
    for name, a in [("type6", gen("type6", n=50, seed=9)), ("extremes", EXTREMES)]:
        path = tmp_path / f"{name}.mtx"
        save_matrix_market(a, str(path))
        assert load_matrix_market(str(path)).tobytes() == a.tobytes()
        # The written text: a size line, then the lower triangle's nonzeros.
        body = [ln for ln in path.read_text(encoding="ascii").splitlines() if not ln.startswith("%")]
        n = a.shape[0]
        assert body[0].split() == [str(n), str(n), str(np.count_nonzero(np.tril(a)))]
        for line in body[1:]:
            i, j, v = line.split()
            i, j = int(i), int(j)
            assert n >= i >= j >= 1
            assert float(v) == a[i - 1, j - 1]


def test_save_without_extension_writes_exact_path(tmp_path):
    a = gen("type6", n=6, seed=1)
    save_matrix_market(a, str(tmp_path / "m"))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m"]
    assert load_matrix_market(str(tmp_path / "m")).tobytes() == a.tobytes()


def test_save_zero_matrix_round_trip(tmp_path):
    path = str(tmp_path / "zero.mtx")
    save_matrix_market(np.zeros((3, 3)), path)
    assert load_matrix_market(path).tobytes() == np.zeros((3, 3)).tobytes()


def test_save_validation(tmp_path):
    path = str(tmp_path / "bad.mtx")
    with pytest.raises(ValueError, match="symmetric"):
        save_matrix_market(np.array([[1.0, 2.0], [3.0, 4.0]]), path)
    with pytest.raises(ValueError, match="square"):
        save_matrix_market(np.zeros((2, 3)), path)
    with pytest.raises(ValueError, match="at least one row"):
        save_matrix_market(np.zeros((0, 0)), path)


def test_non_finite_values_are_named_on_save_and_load(tmp_path):
    # A NaN fails an exact symmetry check (NaN != NaN), so it must be caught
    # first, by name, as factor does.
    with pytest.raises(ValueError, match="NaN or Inf"):
        save_matrix_market(np.array([[np.nan, 0.0], [0.0, 1.0]]), str(tmp_path / "s.mtx"))
    general = write_mm(
        tmp_path,
        "%%MatrixMarket matrix array real general\n2 2\nnan\n0\n0\n1\n",
        name="general.mtx",
    )
    symmetric = write_mm(
        tmp_path,
        "%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 1.0\n2 1 nan\n",
        name="symmetric.mtx",
    )
    for path in (general, symmetric):
        with pytest.raises(ValueError, match="NaN or Inf") as info:
            load_matrix_market(path)
        assert str(info.value).startswith(f"{path}: ")


def test_file_backed_family(tmp_path):
    a = gen("type6", n=7, seed=2)
    path = str(tmp_path / "t9.mtx")
    save_matrix_market(a, path)
    assert np.array_equal(gen("type9", path=path), a)
    with pytest.raises(ValueError, match="path"):
        gen("type9", n=7)


def test_import_leaves_scipy_io_unloaded():
    src = Path(randldl.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-c", "import sys, randldl; print('scipy.io' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
