"""Factorization engine: all strategies, blocked panels, guarded mode."""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from randldl import (
    FactorConfig,
    MatrixSpec,
    NumericalError,
    PAT_DEFICIENT,
    PAT_PAIR_END,
    PAT_PAIR_START,
    PAT_SINGLE,
    SBKP_ALPHA,
    Strategy,
    factor,
    generate,
    reconstruct,
    schur_snapshots,
)
from randldl.core import Buffer, dgemm
from randldl.factor import _block_multipliers, _Engine
from randldl.metrics import growth_from_snapshots
from randldl.pivot import PivotDecision, PivotKind
from helpers import _offdiag_table, lapack_rook, random_symmetric, recon_error

STRATEGIES = ["rcp", "bkpp", "bbk"]


# -- basic contracts -------------------------------------------------------


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_identity_matrix(strategy):
    a = np.eye(8)
    f = factor(a, strategy=strategy, seed=0)
    assert np.array_equal(f.L, np.eye(8))
    assert np.array_equal(f.D.to_dense(), np.eye(8))
    assert np.array_equal(np.sort(f.perm), np.arange(8))
    assert np.array_equal(reconstruct(f), np.eye(8))
    if strategy != "rcp":  # the randomized column swap may relabel indices
        assert np.array_equal(f.perm, np.arange(8))


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_exchange_matrix_is_factored_exactly(strategy):
    a = np.eye(4)[::-1].copy()
    f = factor(a, strategy=strategy, seed=0, b=1)
    permuted = a[np.ix_(f.perm, f.perm)]
    assert np.array_equal(reconstruct(f), permuted)
    # Zero diagonal forces 2x2 pivots throughout.
    assert [blk.shape[0] for blk in f.D.blocks] == [2, 2]
    assert np.array_equal(f.pattern, [PAT_PAIR_START, PAT_PAIR_END] * 2)


def test_one_by_one_input():
    f = factor(np.array([[3.0]]), strategy="bkpp")
    assert np.array_equal(f.L, [[1.0]])
    assert np.array_equal(f.D.to_dense(), [[3.0]])
    assert f.stats.rho_cheap == 1.0


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("b,q", [(1, 1), (8, 1), (8, 8), (64, 1), (64, 64)])
def test_reconstruction_accuracy(strategy, b, q):
    a = random_symmetric(100, seed=1)
    if strategy != "rcp" and q != 1:
        # Batched column selection needs the sketch, which only rcp keeps.
        with pytest.raises(ValueError, match=f"strategy '{strategy}' keeps no sketch"):
            factor(a, strategy=strategy, b=b, q=q, p=max(5, q), seed=7)
        return
    f = factor(a, strategy=strategy, b=b, q=q, p=max(5, q), seed=7)
    assert recon_error(a, f) <= 1e-13
    assert np.array_equal(np.sort(f.perm), np.arange(100))


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_pattern_labels_tile_the_index_range(strategy):
    a = random_symmetric(61, seed=2)
    f = factor(a, strategy=strategy, seed=3)
    assert f.D.dim == 61
    sizes = iter(blk.shape[0] for blk in f.D.blocks)
    i = 0
    while i < 61:
        s = next(sizes)
        if s == 2:
            assert f.pattern[i] == PAT_PAIR_START
            assert f.pattern[i + 1] == PAT_PAIR_END
        else:
            assert f.pattern[i] in (PAT_SINGLE, PAT_DEFICIENT)
        i += s


def test_two_by_two_blocks_have_dominant_off_diagonal():
    # The simplified rule only takes a 2x2 pivot when both candidate
    # diagonals failed the threshold test against the off-diagonal entry.
    inputs = [random_symmetric(60, seed=seed + 10) for seed in range(6)]
    inputs.append(np.eye(6)[::-1].copy())  # zero diagonal: all pivots are 2x2
    found = 0
    for seed, a in enumerate(inputs):
        f = factor(a, strategy="rcp", seed=seed)
        for blk in f.D.blocks:
            if blk.shape[0] == 2:
                found += 1
                d11, d21, d22 = abs(blk[0, 0]), abs(blk[1, 0]), abs(blk[1, 1])
                assert max(d11, d22) <= SBKP_ALPHA * d21 * (1.0 + 1e-12)
                det = blk[0, 0] * blk[1, 1] - blk[1, 0] * blk[0, 1]
                assert abs(det) >= (1.0 - SBKP_ALPHA**2) * d21 * d21 * (1.0 - 1e-12)
    assert found >= 3


def test_factorization_is_deterministic():
    a = random_symmetric(50, seed=4)
    f1 = factor(a, strategy="rcp", seed=9)
    f2 = factor(a, strategy="rcp", seed=9)
    assert np.array_equal(f1.perm, f2.perm)
    assert np.array_equal(f1.L, f2.L)
    assert np.array_equal(f1.D.to_dense(), f2.D.to_dense())


def test_blocked_matches_unblocked():
    # Pivots are bitwise equal; L and D only to rounding, because a panel
    # applies its updates in a different order.
    a = random_symmetric(80, seed=3)
    for strategy in STRATEGIES:
        eager = factor(a, strategy=strategy, b=1, q=1, seed=3)
        blocked = factor(a, strategy=strategy, b=64, q=1, seed=3)
        assert np.array_equal(eager.perm, blocked.perm), strategy
        assert np.array_equal(eager.pattern, blocked.pattern), strategy
        assert np.allclose(eager.L, blocked.L, rtol=1e-10, atol=1e-12), strategy
        assert np.allclose(
            eager.D.to_dense(), blocked.D.to_dense(), rtol=1e-10, atol=1e-12
        ), strategy


def test_reconstruct_is_ldlt():
    a = random_symmetric(30, seed=6)
    f = factor(a, strategy="bbk", b=8)
    assert np.array_equal(reconstruct(f), f.L @ f.D.to_dense() @ f.L.T)


# -- zero and deficient inputs ---------------------------------------------


def test_zero_matrix_partial_pivoting_skips_every_column():
    f = factor(np.zeros((5, 5)), strategy="bkpp")
    assert np.array_equal(f.L, np.eye(5))
    assert np.array_equal(f.D.to_dense(), np.zeros((5, 5)))
    assert np.all(f.pattern == PAT_SINGLE)
    assert f.stats.rho_cheap == 1.0  # zero input, zero blocks


def test_zero_matrix_guarded_mode_terminates_immediately():
    f = factor(np.zeros((5, 5)), strategy="rcp", seed=0)  # guard armed by default
    assert f.deficient_from == 0
    assert np.all(f.pattern == PAT_DEFICIENT)
    assert np.array_equal(f.L, np.eye(5))
    assert np.array_equal(f.D.to_dense(), np.zeros((5, 5)))


def test_zero_matrix_unguarded_sketch_skips():
    f = factor(np.zeros((5, 5)), strategy="rcp", robust_r=0, seed=0)
    assert f.deficient_from is None
    assert np.all(f.pattern == PAT_SINGLE)


def test_guarded_mode_detects_zero_tail():
    a = np.zeros((65, 65))
    a[:40, :40] = random_symmetric(40, seed=5)
    f = factor(a, strategy="rcp", p=6, seed=2)
    assert f.deficient_from == 40
    assert np.all(f.pattern[40:] == PAT_DEFICIENT)
    assert np.all(f.pattern[:40] != PAT_DEFICIENT)
    assert f.stats.recompute_count == 1
    assert np.array_equal(f.D.to_dense()[40:, 40:], np.zeros((25, 25)))
    assert recon_error(a, f) <= 1e-12


def _zero_tail(n: int, rank: int) -> np.ndarray:
    a = np.zeros((n, n))
    a[:rank, :rank] = random_symmetric(rank, seed=5)
    return a


def _assert_bitwise_equal(got, want):
    """Two factorizations agree bitwise, their counters and diagnostics too."""
    assert np.array_equal(got.perm, want.perm)
    assert np.array_equal(got.pattern, want.pattern)
    assert np.array_equal(got.L, want.L)
    for g, w in zip(got.D.blocks, want.D.blocks, strict=True):
        assert np.array_equal(g, w)
    assert got.stats.counters == want.stats.counters
    assert got.stats.recompute_count == want.stats.recompute_count
    assert got.stats.sketch_drift == want.stats.sketch_drift


@pytest.mark.parametrize(
    "kwargs, a",
    [
        (dict(), random_symmetric(150, seed=8)),
        (dict(p=16, b=16, q=16), random_symmetric(150, seed=8)),
        (dict(strategy="bkpp"), random_symmetric(150, seed=8)),
        (dict(strategy="bbk"), random_symmetric(150, seed=8)),
        (dict(b=1), random_symmetric(60, seed=8)),
        (dict(audit_sketch=True), random_symmetric(60, seed=8)),
        (dict(p=6, seed=2), _zero_tail(65, 40)),
        (dict(p=8, b=8, q=8, seed=2), _zero_tail(65, 40)),
        (dict(strategy="bbk"), generate(MatrixSpec("type2", 100))),
    ],
    ids=[
        "rcp",
        "rcp-q=b=16",
        "bkpp",
        "bbk",
        "b=1",
        "audit",
        "robust-zero-tail",
        "robust-zero-tail-q=b=8",
        "bbk-long-walks",
    ],
)
def test_engine_never_reads_strict_upper_triangle(kwargs, a):
    # The engine keeps only the lower triangle of the active block: poisoning
    # everything above the diagonal after set-up must change nothing.
    cfg = FactorConfig(**kwargs)
    clean = _Engine(a, cfg).run()
    engine = _Engine(a, cfg)
    engine.A[np.triu_indices(a.shape[0], 1)] = np.nan
    _assert_bitwise_equal(engine.run(), clean)
    if kwargs.get("seed") == 2:
        # The guard fired on the zero tail: with q = b = 8 it stops at the
        # start of the panel at 40, before the panel's preselection.
        assert clean.deficient_from == 40
        assert clean.stats.recompute_count == 1


class _CountingEngine(_Engine):
    """Counts column formations; ``cached=False`` drops the step's formed
    columns at every swap, so a column is formed again after one."""

    def __init__(self, a, cfg, cached=True):
        super().__init__(a, cfg)
        self.cached = cached
        self.formed = 0

    def _form_column(self, j):
        self.formed += 1
        return super()._form_column(j)

    def _swap(self, i, j):
        super()._swap(i, j)
        if not self.cached:
            self.cols.clear()


class _LabelEngine(_CountingEngine):
    """Keeps a copy of every column its step's search formed, by the label of
    the column and with the labels of its rows."""

    def _step(self, width):
        self.searched = {}
        return super()._step(width)

    def _form_column(self, j):
        c = super()._form_column(j)
        self.searched[int(self.perm[j])] = (self.perm[self.k :].copy(), c.copy())
        return c


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("b", [1, 64])
def test_elimination_reuses_the_searched_pivot_column(strategy, b, monkeypatch):
    # Every pivot column handed to _block_multipliers is the column the
    # search formed, its entries moved along with the swaps after it: the
    # entry of each row label is the one formed for that label.  Taking them
    # from the step's columns forms fewer columns than forming them again,
    # and the cost model charges both alike.
    a = random_symmetric(150, seed=9)
    cfg = FactorConfig(strategy=strategy, b=b)
    engine = _LabelEngine(a, cfg)
    module = sys.modules["randldl.factor"]
    multipliers, handed = module._block_multipliers, []

    def checked(c0, c1, k, alpha):
        rows = engine.perm[k:]
        for pos, c in ((k, c0), (k + 1, c1)):
            if c is not None:
                labels, formed = engine.searched[int(engine.perm[pos])]
                at = np.empty(a.shape[0], dtype=np.int64)
                at[labels] = np.arange(labels.size)
                assert np.array_equal(c, formed[at[rows]])
                handed.append(pos)
        return multipliers(c0, c1, k, alpha)

    monkeypatch.setattr(module, "_block_multipliers", checked)
    got = engine.run()
    assert handed and len(set(handed)) == len(handed)
    monkeypatch.undo()
    fresh = _CountingEngine(a, cfg, cached=False)
    want = fresh.run()
    assert engine.formed < fresh.formed
    assert np.array_equal(got.perm, want.perm)
    assert np.array_equal(got.pattern, want.pattern)
    assert got.stats.counters == want.stats.counters


def _digest_configs():
    path = Path(__file__).resolve().parent.parent / "tools" / "pivot_digest.py"
    spec = importlib.util.spec_from_file_location("pivot_digest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.CONFIGS


def test_rank_deficient_tail_keeps_its_determinant_bound():
    # type10's tail pivots are chosen among values at rounding level.  A 2x2
    # block there passes its search's determinant bound only if elimination
    # reads the very columns the search read: formed again after the swaps,
    # the block at step 56 of this run (entries near 4e-15) failed the bound.
    a = generate(MatrixSpec("type10", 300, seed=2))
    f = factor(a, p=64, b=64, q=64, seed=2)
    assert recon_error(a, f) <= 1e-10
    for n in (64, 300):
        for s in range(3):
            a = generate(MatrixSpec("type10", n, seed=s))
            for overrides in _digest_configs().values():
                assert recon_error(a, factor(a, seed=s, **overrides)) <= 1e-10


_SCALED = {
    "rcp": {},
    "rcp-q=b=16": {"p": 16, "b": 16, "q": 16},
    "bkpp": {"strategy": "bkpp"},
    "bbk": {"strategy": "bbk"},
}


@seed(2024)
@settings(max_examples=40)
@given(
    family=st.sampled_from(["type2", "type3", "type6"]),
    n=st.integers(3, 200),
    matrix_seed=st.integers(0, 3),
    config=st.sampled_from(sorted(_SCALED)),
    e=st.integers(-500, 500),
)
@example(family="type6", n=200, matrix_seed=0, config="rcp", e=300)
@example(family="type6", n=200, matrix_seed=1, config="rcp", e=-460)
@example(family="type3", n=200, matrix_seed=2, config="rcp-q=b=16", e=500)
@example(family="type2", n=200, matrix_seed=3, config="rcp", e=-500)
def test_power_of_two_scaling_changes_only_d(family, n, matrix_seed, config, e):
    # c = 2**e scales every value the engine forms exactly, so c * A must
    # give the same pivots and L, and D scaled by c.  Sketch norms are summed
    # as the sketch stands for moderate scales and after a power-of-two
    # rescaling outside them; both paths select alike.
    a = generate(MatrixSpec(family, n, seed=matrix_seed))
    c = 2.0**e
    base = factor(a, seed=matrix_seed, **_SCALED[config])
    scaled = factor(c * a, seed=matrix_seed, **_SCALED[config])
    assert np.array_equal(scaled.perm, base.perm)
    assert np.array_equal(scaled.pattern, base.pattern)
    assert np.array_equal(scaled.L, base.L)
    for got, want in zip(scaled.D.blocks, base.D.blocks, strict=True):
        assert np.array_equal(got, c * want)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("strategy", ["rcp", "bbk"])
@pytest.mark.parametrize("e", [700, 1000])
def test_overflow_raises_numerical_error_without_warnings(strategy, e):
    # At these scales the pivot data overflows; the engine's own error names
    # the step, and no NumPy overflow warning reaches the caller before it.
    a = generate(MatrixSpec("type6", 200, seed=0))
    with pytest.raises(NumericalError, match="non-finite"):
        factor(2.0**e * a, strategy=strategy)


# -- LAPACK rook oracle ----------------------------------------------------


@pytest.mark.parametrize("b, blocked", [(1, False), (64, True)], ids=["dsytf2_rook", "dsytrf_rook"])
@pytest.mark.parametrize("n", [64, 300])
@pytest.mark.parametrize("family", [f"type{i}" for i in range(1, 9)])
def test_bbk_matches_lapack_rook(family, n, b, blocked):
    # bbk at b = 1 against the unblocked routine, at b = 64 against the
    # blocked one: the same interchanges and the same block sizes.  type10 is
    # left out: its tail is pivoted among values at rounding level, where
    # the two differ in every case.
    for seed in range(3):
        a = generate(MatrixSpec(family, n, seed))
        f = factor(a, strategy="bbk", b=b)
        perm, pattern = lapack_rook(a, blocked)
        assert np.array_equal(f.perm, perm), seed
        assert np.array_equal(f.pattern, pattern), seed


# -- long rook walks -------------------------------------------------------


class _PanelEngine(_CountingEngine):
    """Counts column formations, and records each panel's (start, steps) and
    the (k, t) of each rook walk that reads the table."""

    def __init__(self, a, cfg):
        super().__init__(a, cfg)
        self.panels = []
        self.walks = []

    def _apply_trailing(self):
        self.panels.append((self.k0, self.t))
        super()._apply_trailing()

    def _long_walk(self):
        self.walks.append((self.k, self.t))
        return super()._long_walk()


def _block_diagonal(*blocks):
    n = sum(b.shape[0] for b in blocks)
    a = np.zeros((n, n))
    i = 0
    for b in blocks:
        a[i : i + b.shape[0], i : i + b.shape[0]] = b
        i += b.shape[0]
    return a


def _compare_with_formed_columns(a, b, monkeypatch):
    """Run bbk with the table, with a hop limit no walk reaches (every hop
    forms its column), and at b = 1; the pivots and the charged comparisons
    and divisions must agree.  Returns the first two engines."""
    table = _PanelEngine(a, FactorConfig(strategy="bbk", b=b))
    got = table.run()
    with monkeypatch.context() as patch:
        patch.setattr(sys.modules["randldl.factor"], "_ROOK_HOPS", a.shape[0])
        columns = _PanelEngine(a, FactorConfig(strategy="bbk", b=b))
        want = columns.run()
    eager = factor(a, strategy="bbk", b=1)
    for f in (want, eager):
        assert np.array_equal(got.perm, f.perm)
        assert np.array_equal(got.pattern, f.pattern)
    g, w = got.stats.counters, want.stats.counters
    assert (g.comps, g.divs) == (w.comps, w.divs)
    assert g.mults < w.mults and g.adds < w.adds  # no panel corrections
    # A table is read only where the stored block is the Schur complement.
    assert all(t == 0 for _, t in table.walks)
    return table, columns


def test_long_walks_read_the_table_and_keep_the_pivots(monkeypatch):
    # type2's rook walks visit every remaining column, from the first step.
    a = generate(MatrixSpec("type2", 256))
    table, columns = _compare_with_formed_columns(a, 64, monkeypatch)
    assert table.formed * 10 < columns.formed
    # The first long walk ends its panel at once, and every panel is one
    # step wide but the last, over the few columns where no walk can run
    # long.
    assert table.walks[0] == (0, 0)
    widths = [t for _, t in table.panels]
    assert widths[:-1] == [1] * (len(widths) - 1)


def test_long_walk_inside_a_panel_forms_its_columns_and_ends_the_panel(monkeypatch):
    # Dense Gaussian blocks around a type2 block.  The first long walk comes
    # 8 steps into a panel, at k = 40: it forms every column it visits, its
    # pivot is eliminated in the panel, and the panel ends there.  The next
    # walk, at the next panel's start, reads the table.  Panels stay one
    # step wide over type2 and go back to width b after it.
    type2 = generate(MatrixSpec("type2", 64))
    a = _block_diagonal(random_symmetric(40, seed=1), type2, random_symmetric(100, seed=2))
    table, _ = _compare_with_formed_columns(a, 32, monkeypatch)
    assert table.panels[:3] == [(0, 32), (32, 9), (41, 1)]
    assert table.walks[0] == (41, 0)
    assert all(t == 1 for k0, t in table.panels if 40 <= k0 < 88)
    assert sum(t == 32 for k0, t in table.panels if k0 >= 88) >= 2


def _walks_form_first(monkeypatch):
    """Drop the table after every step instead of keeping it: every walk
    then forms its first ``_ROOK_HOPS`` columns before it scans the table
    whole and reads it."""
    def drop(self, decision):
        self.table = None

    monkeypatch.setattr(_Engine, "_carry_table", drop)


def _table_first_against_form_first(a, b, monkeypatch):
    """Run bbk with table-first walks and with the table dropped after
    every step; every result and every panel must agree bitwise.  Returns
    both engines."""
    first = _PanelEngine(a, FactorConfig(strategy="bbk", b=b))
    got = first.run()
    with monkeypatch.context() as patch:
        _walks_form_first(patch)
        formed = _PanelEngine(a, FactorConfig(strategy="bbk", b=b))
        want = formed.run()
    _assert_bitwise_equal(got, want)
    assert first.panels == formed.panels
    return first, formed


@pytest.mark.parametrize(
    "family, n, b",
    [("type2", n, b) for n in (64, 300) for b in (1, 7, 64)] + [("type6", 300, 64)],
)
def test_table_first_walks_keep_every_result(family, n, b, monkeypatch):
    _table_first_against_form_first(generate(MatrixSpec(family, n)), b, monkeypatch)


def test_table_first_walks_form_about_two_columns_a_step(monkeypatch):
    # type2's walks visit every remaining column.  Formed first, each forms
    # 8 columns before it reads the table; read from the table, a step forms
    # only its pivot columns.  At most one table is read for nothing.
    a = generate(MatrixSpec("type2", 256))
    first, formed = _table_first_against_form_first(a, 64, monkeypatch)
    steps = len(first.blocks)
    assert first.formed <= 2.2 * steps < formed.formed / 4
    tables = [len(e.walks) for e in (first, formed)]
    assert tables[1] <= tables[0] <= tables[1] + 1


def test_panels_regain_width_after_a_run_of_long_walks(monkeypatch):
    # A type2 block, whose walks run long until its last few columns, then a
    # diagonally dominant block, where no walk runs.  The first short walk
    # reads a table it did not need; after it, panels are b wide again.
    dominant = random_symmetric(96, seed=3) + 200.0 * np.eye(96)
    a = _block_diagonal(generate(MatrixSpec("type2", 64)), dominant)
    first, formed = _table_first_against_form_first(a, 32, monkeypatch)
    tables = [len(e.walks) for e in (first, formed)]
    assert tables[0] == tables[1] + 1
    widths = [t for _, t in first.panels]
    ones = widths.count(1)
    assert ones > 32 and widths == [1] * ones + [32, 32, 32, 160 - ones - 96]


# -- kept off-diagonal table -------------------------------------------------


class _TableCheckEngine(_PanelEngine):
    """Checks at every table request that the table, read from position k
    on, is bitwise ``_offdiag_table`` of the stored active block; counts the
    requests and the full builds among them."""

    def __init__(self, a, cfg):
        super().__init__(a, cfg)
        self.requests = self.builds = 0

    def _long_walk(self):
        build = self.table is None
        table = super()._long_walk()
        k = self.k
        self.requests += 1
        self.builds += build
        absdiag, vmax, vidx = table
        got = (absdiag[k:], vmax[k:], [j - k for j in vidx[k:]])
        for g, w in zip(got, _offdiag_table(self.A[k:, k:]), strict=True):
            assert np.asarray(g).tobytes() == np.asarray(w).tobytes()
        return table


class _RebuildEngine(_PanelEngine):
    """Scans every column into the off-diagonal table at every request."""

    def _long_walk(self):
        self.table = None
        return super()._long_walk()


def _kept_against_rebuilt(a, b):
    """Run bbk keeping the table and rebuilding it at every request; every
    result and every panel must agree bitwise.  Returns the first engine."""
    cfg = FactorConfig(strategy="bbk", b=b)
    kept, rebuilt = _TableCheckEngine(a, cfg), _RebuildEngine(a, cfg)
    _assert_bitwise_equal(kept.run(), rebuilt.run())
    assert kept.panels == rebuilt.panels and kept.walks == rebuilt.walks
    assert kept.formed == rebuilt.formed
    return kept


def _table_inputs():
    """type2, whose walks all run long, type2 bordered by columns zero off
    the diagonal, whose recorded maximum moves at every step, and the
    block-diagonal mixes above."""
    type2 = generate(MatrixSpec("type2", 64))
    dominant = random_symmetric(96, seed=3) + 200.0 * np.eye(96)
    return {
        "type2-64": type2,
        "type2-300": generate(MatrixSpec("type2", 300)),
        "type2-zero-border": _block_diagonal(type2, np.diag([0.0, 3.0, 0.0])),
        "gaussian-type2-gaussian": _block_diagonal(
            random_symmetric(40, seed=1), type2, random_symmetric(100, seed=2)
        ),
        "type2-dominant": _block_diagonal(type2, dominant),
    }


@pytest.mark.parametrize("b", [1, 7, 64])
@pytest.mark.parametrize("name", list(_table_inputs()))
def test_kept_table_is_a_fresh_build_at_every_request(name, b):
    kept = _kept_against_rebuilt(_table_inputs()[name], b)
    # type2's steps leave a few columns stale, so most requests re-scan.
    assert kept.requests > 40 and kept.builds * 4 < kept.requests


@st.composite
def _sparse_integer_symmetric(draw):
    """A symmetric matrix of small integers, mostly zeros: ties, columns
    zero off the diagonal, and now and then a dense first row and column
    (an arrow)."""
    n = draw(st.integers(2, 40), label="n")
    entries = st.sampled_from([0.0] * 6 + [-0.0, 1.0, -1.0, 2.0, -2.0, 3.0])
    values = draw(st.lists(entries, min_size=n * n, max_size=n * n), label="values")
    a = np.tril(np.array(values).reshape(n, n))
    if draw(st.booleans(), label="arrow"):
        a[:, 0] = np.arange(1, n + 1) % 3 + 1.0
    for j in draw(st.lists(st.integers(0, n - 1), max_size=3), label="zero columns"):
        a[j, :j] = a[j + 1 :, j] = 0.0
    return a + np.tril(a, -1).T


@seed(1998)
@settings(max_examples=150, deadline=None)
@given(a=_sparse_integer_symmetric(), b=st.sampled_from([1, 7, 64]), hops=st.sampled_from([0, 1, 8]))
def test_kept_table_on_sparse_integer_matrices(a, b, hops):
    # A hop limit of 0 or 1 makes most walks long, so most steps keep the
    # table across them; at 8 few walks here run long.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sys.modules["randldl.factor"], "_ROOK_HOPS", hops)
        _kept_against_rebuilt(a, b)


def test_type2_builds_few_tables():
    # Each type2 step leaves 3 columns stale.  The first long walk scans
    # every column into the table; every later one re-scans only the stale
    # columns, down to the last walk.
    a = generate(MatrixSpec("type2", 256))
    kept = _TableCheckEngine(a, FactorConfig(strategy="bbk"))
    kept.run()
    assert kept.requests >= 240 and kept.builds == 1


# -- q = b preselection ----------------------------------------------------


@pytest.mark.parametrize("panels", [0, 1])
@pytest.mark.parametrize(
    "selection",
    # None runs partial_qrcp itself.  In the others a later column is one
    # that an earlier swap moved: [3, 0, 5, 1] takes label 0 from position
    # 3, and in [1, 2, 0, 3] label 0 moves twice before it is taken.
    [None, [3, 0, 5, 1], [1, 2, 0, 3]],
)
def test_panel_preselect_swaps_the_selected_labels_to_the_front(selection, panels, monkeypatch):
    a = generate(MatrixSpec("type6", 40, seed=1))
    engine = _Engine(a, FactorConfig(p=4, b=4, q=4, seed=2))
    for _ in range(panels):
        engine._run_panel()
    k = engine.k
    engine.k0, engine.t = k, 0
    module = sys.modules["randldl.factor"]
    qrcp, chosen = module.partial_qrcp, []

    def select(b, width):
        chosen.append(list(qrcp(b, width) if selection is None else selection))
        return chosen[-1]

    monkeypatch.setattr(module, "partial_qrcp", select)
    before = engine.perm.copy()
    engine._panel_preselect(4)
    (picked,) = chosen
    assert engine.perm[k : k + 4].tolist() == before[k + np.array(picked)].tolist()
    assert sorted(engine.perm.tolist()) == list(range(40))


# -- panel buffer ----------------------------------------------------------


class _PoisonedPanelEngine(_Engine):
    """Fills the whole panel buffer with NaN before every panel, so a read of
    an entry the current panel has not written shows in every result."""

    def _run_panel(self):
        self.buf_W.array.fill(np.nan)
        super()._run_panel()


_BUFFER_CONFIGS = [
    dict(strategy=s, b=b) for s in STRATEGIES for b in (1, 7, 64)
] + [dict(p=16, b=16, q=16)]


@pytest.mark.parametrize("family", ["type2", "type6"])
@pytest.mark.parametrize("overrides", _BUFFER_CONFIGS, ids=str)
@pytest.mark.parametrize("audited", [False, True])
def test_panels_read_only_what_they_wrote_in_w(family, overrides, audited):
    # Each panel takes a view of one uncleared buffer; every read of it must
    # take rows >= k - k0 of columns < t, all written by the panel's steps.
    extra = dict(audit_sketch=True) if audited else {}
    a = generate(MatrixSpec(family, 150, seed=1))
    cfg = FactorConfig(seed=1, **overrides, **extra)
    _assert_bitwise_equal(_PoisonedPanelEngine(a, cfg).run(), factor(a, cfg))


@pytest.mark.parametrize("name", ["A", "L", "W"])
def test_engine_buffers_are_read_back_from_their_bindings(name):
    # A, L and W are the arrays their Buffers bind, column-major, before and
    # after a run; none can be rebound to an array dgemm would not write
    # through.
    a = generate(MatrixSpec("type6", 40, seed=1))
    engine = _Engine(a, FactorConfig(p=4, b=4, q=4, seed=2))
    bound = getattr(engine, "buf_" + name).array

    def check_view():
        view = getattr(engine, name)
        assert view is bound and view.strides[0] == 8
        with pytest.raises(AttributeError):
            setattr(engine, name, view.copy(order="F"))

    check_view()
    engine.run()
    check_view()


# -- dgemm blocks ----------------------------------------------------------


def _dgemm_on_views(calls):
    """A stand-in for the engine's dgemm: it cuts each block out of its bound
    array as a view, checks the view is whole (slicing would silently clip a
    block that runs past its buffer), binds each view as a Buffer of its own
    and runs dgemm on them at offset (0, 0)."""

    def view(block, rows, cols):
        buf, i, j = block
        v = buf.array[i : i + rows, j : j + cols]
        assert i >= 0 and j >= 0 and v.shape == (rows, cols)
        return Buffer(v), 0, 0

    def on_views(m, n, k, alpha, a, b, beta, c, trans_a=False, trans_b=False):
        calls.append((m, n, k))
        op_a = view(a, *((k, m) if trans_a else (m, k)))
        op_b = view(b, *((n, k) if trans_b else (k, n)))
        dgemm(m, n, k, alpha, op_a, op_b, beta, view(c, m, n), trans_a, trans_b)

    return on_views


@pytest.mark.parametrize("n", [1, 2, 129, 130, 300])
@pytest.mark.parametrize("overrides", _BUFFER_CONFIGS, ids=str)
@pytest.mark.parametrize("audited", [False, True])
def test_dgemm_offsets_address_the_blocks_views_would(n, overrides, audited, monkeypatch):
    # The trailing strips, the sketch downdates, the q = b correction and
    # the projections hand dgemm blocks by offset; dgemm on the views those
    # offsets name must give every result bitwise.  type2 keeps bbk's walks
    # long, so its panels stay one step wide.
    extra = dict(audit_sketch=True) if audited else {}
    a = generate(MatrixSpec("type2", n, seed=1)) if n >= 3 else random_symmetric(n, seed=1)
    cfg = FactorConfig(seed=1, **overrides, **extra)
    want = factor(a, cfg)
    calls = []
    monkeypatch.setattr(sys.modules["randldl.factor"], "dgemm", _dgemm_on_views(calls))
    _assert_bitwise_equal(factor(a, cfg), want)
    assert calls or n < 3


# -- multipliers ---------------------------------------------------------------


def test_panel_columns_single_pivot():
    lcols, dblock, lmax = _block_multipliers(np.array([2.0, 1.0, 3.0]), None, 0, SBKP_ALPHA)
    assert np.array_equal(lcols, [[0.5], [1.5]])
    assert np.array_equal(dblock, [[2.0]])
    assert lmax == 1.5


def test_panel_columns_two_by_two_pivot():
    c0, c1 = np.array([0.0, 1.0, 2.0]), np.array([1.0, 0.0, 3.0])
    lcols, dblock, lmax = _block_multipliers(c0, c1, 0, SBKP_ALPHA)
    assert np.array_equal(lcols, [[3.0, 2.0]])
    assert np.array_equal(dblock, [[0.0, 1.0], [1.0, 0.0]])
    assert lmax == 3.0


def test_panel_columns_zero_trailing_rows():
    lcols, _, lmax = _block_multipliers(np.array([2.0, 0.0]), None, 0, SBKP_ALPHA)
    assert np.array_equal(lcols, [[0.0]])
    assert lmax == 0.0


def test_panel_columns_interior_offset():
    # Row and column 0 are decoupled, so step 1 pivots on the 4 below them.
    a = np.zeros((4, 4))
    a[0, 0] = 1.0
    a[1:, 1] = a[1, 1:] = [4.0, 2.0, 6.0]
    a[2, 2], a[3, 3] = 5.0, 5.0
    f = factor(a, strategy="bkpp")
    assert np.array_equal(f.perm, [0, 1, 2, 3])
    assert np.array_equal(f.L[2:, 1], [0.5, 1.5])
    assert np.array_equal(f.D.blocks[1], [[4.0]])


def test_panel_columns_charge_counters():
    # Divisions are charged only for multipliers: w per 1x1 step, 2w per 2x2.
    a = np.array([[2.0, 1.0, 3.0], [1.0, 1.0, 1.0], [3.0, 1.0, 1.0]])
    assert factor(a, strategy="bkpp", b=1).stats.counters.divs == 2 + 1
    # One 2x2 step over one trailing row: 2 divisions, 4w + 2 = 6 multiplies
    # and 2w + 1 = 3 adds, plus 2 of each for the trailing update; one scan
    # of column 0 and one of column r.
    b = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]])
    c = factor(b, strategy="bkpp", b=1).stats.counters
    assert (c.mults, c.adds, c.divs, c.comps) == (8, 5, 2, 2)
    zero = factor(np.array([[2.0, 0.0], [0.0, 5.0]]), strategy="bkpp").stats.counters
    assert zero.divs == 0  # zero column, no divisions performed


class _ForcedEngine(_Engine):
    """Takes ``kind`` as the pivot decision at step ``at``."""

    def __init__(self, a, kind, at):
        super().__init__(np.asarray(a, dtype=np.float64), FactorConfig(strategy="bkpp", b=1))
        self.kind, self.at = kind, at

    def _decide(self):
        decision = super()._decide()
        if self.k == self.at:
            two = self.kind is PivotKind.TWO_BY_TWO
            decision = PivotDecision(self.kind, s=2 if two else 1, r=self.k + 1 if two else None)
        return decision


@pytest.mark.parametrize(
    "a, kind, at, match, block",
    [
        (
            [[2.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 3.0]],
            PivotKind.ONE_BY_ONE,
            1,
            "zero 1x1 pivot under a nonzero column at step 1",
            [[0.0]],
        ),
        (
            [[2.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, 1.0]],
            PivotKind.TWO_BY_TWO,
            1,
            "singular 2x2 pivot block at step 1",
            [[1.0, 1.0], [1.0, 1.0]],
        ),
        (
            [[1e-300, 1e300], [1e300, 0.0]],
            PivotKind.ONE_BY_ONE,
            0,
            "non-finite pivot data at step 0",
            [[1e-300]],
        ),
        (
            [[1.0, 1.0], [1.0, 1.0 + 2.0**-20]],
            PivotKind.TWO_BY_TWO,
            0,
            "2x2 block at step 0 violates its determinant bound",
            [[1.0, 1.0], [1.0, 1.0 + 2.0**-20]],
        ),
    ],
    ids=["zero-1x1", "singular-2x2", "non-finite", "determinant-bound"],
)
def test_numerical_error_names_step_and_block(a, kind, at, match, block):
    with np.errstate(over="ignore"), pytest.raises(NumericalError, match=match) as info:
        _ForcedEngine(a, kind, at).run()
    assert info.value.step == at
    assert np.array_equal(info.value.block, block)


def test_panel_columns_numerical_errors():
    with pytest.raises(NumericalError, match="zero 1x1 pivot"):
        _block_multipliers(np.array([0.0, 1.0]), None, 0, SBKP_ALPHA)
    with pytest.raises(NumericalError, match="singular 2x2"):
        _block_multipliers(np.array([1.0, 1.0, 5.0]), np.array([1.0, 1.0, 7.0]), 0, SBKP_ALPHA)
    with np.errstate(over="ignore"), pytest.raises(NumericalError, match="non-finite"):
        _block_multipliers(np.array([1e-300, 1e300]), None, 0, SBKP_ALPHA)
    with pytest.raises(NumericalError, match="determinant bound"):
        _block_multipliers(np.array([1.0, 1.0]), np.array([1.0, 1.0 + 2.0**-20]), 0, SBKP_ALPHA)


# -- diagnostics -------------------------------------------------------------


def test_schur_snapshots_give_growth_factors():
    # The first entry is the input's; growth is measured against it.
    a = random_symmetric(50, seed=8)
    f = factor(a, strategy="rcp", seed=1)
    snapshots = schur_snapshots(a, f)
    assert snapshots[0][0] == np.abs(a).max()
    rho_elem, rho_col = growth_from_snapshots(snapshots)
    assert rho_elem >= 1.0 and rho_col >= 1.0
    assert f.stats.rho_cheap > 0.0


def test_schur_snapshots_reject_a_mismatched_input():
    a = random_symmetric(20, seed=8)
    f = factor(a, strategy="rcp", seed=1)
    for wrong in (a[:19, :19], np.zeros((21, 21)), a[:, :19], a + 1j):
        with pytest.raises(ValueError, match="A "):
            schur_snapshots(wrong, f)


def test_audit_mode_reports_tiny_sketch_drift():
    a = random_symmetric(60, seed=1)
    f = factor(a, strategy="rcp", p=8, b=1, audit_sketch=True, seed=1)
    drift = f.stats.sketch_drift
    assert drift and max(drift) <= 1e-10


def test_audit_of_a_single_panel_records_nothing():
    # The audit runs at panel ends that leave a trailing block; at n <= b the
    # one panel leaves none, so there is no drift to record.
    f = factor(random_symmetric(60, seed=1), p=8, b=64, audit_sketch=True, seed=1)
    assert f.stats.sketch_drift == []


@pytest.mark.parametrize("strategy", ["bkpp", "bbk"])
def test_audit_without_a_sketch_records_nothing(strategy):
    # Only rcp keeps a sketch to audit; asking the others for an audit
    # changes nothing and records no drift.
    a = random_symmetric(100, seed=1)
    f = factor(a, strategy=strategy, b=16, audit_sketch=True)
    assert f.stats.sketch_drift is None
    assert np.array_equal(f.L, factor(a, strategy=strategy, b=16).L)


def _replayed_snapshots(a, f):
    """Snapshot norms of a plain right-looking elimination along f's pivots,
    each Schur complement formed by solving with D's block rather than by
    multiplying with L; a deficient tail is recorded once, where it stops."""
    s = a[np.ix_(f.perm, f.perm)]
    out = []
    for blk in f.D.blocks:
        out.append((np.abs(s).max(), np.linalg.norm(s, axis=0).max()))
        if f.n - s.shape[0] == f.deficient_from:
            break
        z = blk.shape[0]
        s = s[z:, z:] - s[z:, :z] @ np.linalg.solve(blk, s[:z, z:])
    return np.array(out)


@pytest.mark.parametrize(
    "a, kwargs, deficient_from",
    [
        (generate(MatrixSpec("type1", 60)), dict(strategy="bkpp", b=1), None),
        (generate(MatrixSpec("type2", 100)), dict(strategy="bbk"), None),
        *[
            (generate(MatrixSpec("type6", 200, seed=seed)), dict(p=16, b=16, q=16, seed=seed), None)
            for seed in range(3)
        ],
        (_zero_tail(65, 40), dict(p=6, seed=2, b=1), 40),
        (_zero_tail(65, 40), dict(p=6, seed=2, b=64), 40),
        (_zero_tail(65, 40), dict(p=8, b=8, q=8, seed=2), 40),
    ],
    ids=[
        "type1-bkpp-b=1", "type2-bbk", "type6-q=b=16-seed0", "type6-q=b=16-seed1",
        "type6-q=b=16-seed2", "zero-tail-b=1", "zero-tail-b=64", "zero-tail-q=b=8",
    ],
)
def test_schur_snapshots_match_a_replayed_elimination(a, kwargs, deficient_from):
    # One entry per pivot block, plus one for a deficient tail.  The two
    # replays round differently, so they agree relative to the largest
    # entry.  type1 under bkpp grows by 3e11 at n = 60; at n = 100 growth
    # passes 1/eps, the last Schur complements are rounding alone, and the
    # two replays part there.
    f = factor(a, **kwargs)
    assert f.deficient_from == deficient_from
    # The tail's n - deficient_from zero blocks share one entry.
    shared = 0 if deficient_from is None else f.n - deficient_from - 1
    got, want = np.array(schur_snapshots(a, f)), _replayed_snapshots(a, f)
    assert got.shape == want.shape == (len(f.D.blocks) - shared, 2)
    assert np.all(np.abs(got - want) <= 1e-12 * want.max(axis=0))


@pytest.mark.parametrize("family, n", [("type6", 200), ("type3", 256), ("type7", 256)])
def test_schur_snapshots_agree_across_widths(family, n):
    # b = 64 picks b = 1's pivots (type6 n = 200 seed 3 defers two steps at
    # b = 64) with factors that differ only by rounding, so the Schur
    # complements replayed from the two agree to rounding.
    for seed in range(4):
        a = generate(MatrixSpec(family, n, seed=seed))
        ref = factor(a, b=1, seed=seed)
        f = factor(a, b=64, seed=seed)
        assert np.array_equal(f.perm, ref.perm) and np.array_equal(f.pattern, ref.pattern)
        got, want = np.array(schur_snapshots(a, f)), np.array(schur_snapshots(a, ref))
        assert got.shape == want.shape == (len(f.D.blocks), 2)
        assert np.all(np.abs(got - want) <= 1e-12 * want)


@pytest.mark.parametrize("width", [16, 64])
def test_audit_covers_q_b_sketch_correction(width):
    # The drift audit runs at each panel end, so at p = b = q it checks the
    # once-per-panel sketch correction.
    for seed in range(3):
        a = generate(MatrixSpec("type6", 200, seed=seed))
        f = factor(a, p=width, b=width, q=width, seed=seed, audit_sketch=True)
        drift = f.stats.sketch_drift
        assert len(drift) >= 200 // width - 1
        assert max(drift) <= 1e-10
        assert np.array_equal(f.L, factor(a, p=width, b=width, q=width, seed=seed).L)


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("b", [1, 64])
def test_max_multiplier_is_largest_strict_lower_entry(strategy, b):
    for n, seed in ((2, 0), (90, 1), (150, 2)):
        f = factor(random_symmetric(n, seed=seed), strategy=strategy, b=b)
        assert f.stats.max_multiplier == np.abs(np.tril(f.L, -1)).max()
    # A deficient tail leaves its columns of L at zero.
    a = np.zeros((65, 65))
    a[:40, :40] = random_symmetric(40, seed=5)
    f = factor(a, strategy="rcp", p=6, seed=2, b=b)
    assert f.deficient_from == 40
    assert f.stats.max_multiplier == np.abs(np.tril(f.L, -1)).max()


def test_counters_are_populated():
    a = random_symmetric(40, seed=9)
    f = factor(a, strategy="rcp", b=1, seed=0)
    c = f.stats.counters
    assert c.mults > 0 and c.adds > 0 and c.divs > 0 and c.comps > 0


# -- configuration and validation ---------------------------------------------


def test_config_accepts_enum_and_string_strategies():
    a = random_symmetric(10, seed=0)
    f1 = factor(a, cfg=FactorConfig(strategy=Strategy.BBK, b=1))
    f2 = factor(a, strategy="bbk", b=1)
    assert np.array_equal(f1.perm, f2.perm)


def test_config_rejects_cfg_plus_overrides():
    with pytest.raises(ValueError, match="not both"):
        factor(np.eye(3), cfg=FactorConfig(), b=1)


def test_factor_rejects_cfg_that_is_not_a_factor_config():
    # A dict would otherwise fail inside the engine, on its first attribute.
    with pytest.raises(TypeError, match="cfg must be a FactorConfig, got dict"):
        factor(np.eye(3), {"p": 3})


@pytest.mark.parametrize(
    "kwargs",
    [
        {"p": 0},
        {"b": 0},
        {"q": 3, "b": 8},
        {"q": 8, "b": 8, "p": 5},
        {"q": 8, "b": 8, "p": 8, "strategy": "bkpp"},
        {"q": 8, "b": 8, "p": 8, "strategy": "bbk"},
        {"robust_r": -1},
        {"strategy": "newton"},
        {"b": 2.0},
        {"p": 5.0},
        {"q": 1.0},
        {"robust_r": 1.5},
        {"seed": 0.0},
        {"seed": -1},
        {"b": True},
        {"audit_sketch": "no"},
        {"audit_sketch": 1},
        {"audit_sketch": None},
    ],
    ids=[
        "p", "b", "q-not-1-or-b", "p-below-q", "q-without-sketch-bkpp",
        "q-without-sketch-bbk", "robust_r", "strategy", "b-float", "p-float",
        "q-float", "robust_r-float", "seed-float", "seed-negative", "b-bool",
        "audit_sketch-str", "audit_sketch-int", "audit_sketch-none",
    ],
)
def test_config_validation(kwargs):
    # Each failure names the field it rejects, the first one given.
    with pytest.raises(ValueError, match=rf"(?i)\b{next(iter(kwargs))}\b"):
        FactorConfig(**kwargs)


def test_config_stores_numpy_integers_as_int():
    cfg = FactorConfig(p=np.int64(20), b=np.int32(16), q=np.int64(16), seed=np.uint8(3))
    assert [type(getattr(cfg, f)) for f in ("p", "b", "q", "seed")] == [int] * 4
    assert (cfg.p, cfg.b, cfg.q, cfg.seed) == (20, 16, 16, 3)
    assert FactorConfig(audit_sketch=np.bool_(True)).audit_sketch is True


def test_config_is_frozen():
    # A config is validated once; changing it afterwards would run a path
    # the validation never saw (a plain "rcp" string, or q outside {1, b}).
    cfg = FactorConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.strategy = "rcp"
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.q = 3
    with pytest.raises(ValueError, match="q must be 1 or b"):
        dataclasses.replace(cfg, q=3)
    assert dataclasses.replace(cfg, strategy="bbk").strategy is Strategy.BBK


@pytest.mark.parametrize(
    "a, match",
    [
        (np.zeros((0, 0)), "at least one row"),
        (np.zeros((2, 3)), "square"),
        (np.array([[1.0, 2.0], [3.0, 4.0]]), "symmetric"),
        (np.array([[np.nan, 0.0], [0.0, 1.0]]), "NaN or Inf"),
        (np.array([[1.0, np.nan], [np.nan, 1.0]]), "NaN or Inf"),
        (np.array([[np.inf, 0.0], [0.0, 1.0]]), "NaN or Inf"),
        (np.array([[1.0, 0.0], [0.0, -np.inf]]), "NaN or Inf"),
        (np.array([[1.0, 1j], [1j, 1.0]]), "A must be real"),
    ],
    ids=[
        "empty", "rectangular", "asymmetric", "nan", "nan-off-diagonal", "inf", "neg_inf",
        "complex",
    ],
)
def test_input_validation(a, match):
    with pytest.raises(ValueError, match=match):
        factor(a, strategy="bkpp")
