"""Block LDL^T factorization with three pivoting strategies.

``factor`` computes ``A[perm][:, perm] = L @ D @ L.T`` for a dense symmetric
matrix, where ``L`` is unit lower triangular and ``D`` is block diagonal with
1x1 and 2x2 blocks.  Strategies:

* ``rcp``: a Gaussian sketch of the active Schur complement selects the
  column of (approximately) largest norm before each elimination step, and a
  simplified threshold rule picks the block size.  The sketch is downdated in
  O(p n) per step, so the overhead over partial pivoting stays small while
  element growth stays polynomially bounded with high probability.
* ``bkpp``: classic partial pivoting.  Cheapest search; element growth can
  be exponential on adversarial inputs.
* ``bbk``: bounded (rook) pivoting.  Bounded multipliers, but the rook walk
  can touch many columns per step in the worst case.  A walk forms its first
  ``_ROOK_HOPS`` columns; a longer one reads every further column's
  off-diagonal maximum from one table built over the stored lower triangle
  (see :mod:`randldl.pivot`), which is exact only with an empty panel.  So a
  long walk inside a panel defers (the panel is flushed and the step rerun
  at the next panel's start, like a 2x2 pivot that would overflow the
  panel), and a panel whose first walk runs long ends after that step:
  panels stay one step wide while walks keep running long, and a short walk
  restores width ``b``.  While walks keep running long, each walk reads the
  table from its first hop instead of forming ``_ROOK_HOPS`` columns first;
  a walk that turns out short then costs one table built or refreshed for
  nothing, and the next walk forms its columns again.  A run of long walks
  builds the table once.  After each of its one-step panels the next walk
  re-scans only the stale columns: those of the rows the step touched,
  those with a nonzero entry in these rows, and those zero off their
  diagonal.  When more than ``_REFRESH`` of the columns are stale, it
  builds the table whole.  Every hop is still charged the ``m - 2``
  comparisons of a column scan, and a deferred search is charged only
  once, by its rerun.

Elimination is organized in panels of width ``b``.  Inside a panel only the
current pivot columns are updated (each formed from the frozen trailing
matrix plus a correction against the panel's earlier columns); the trailing
Schur complement is rebuilt once per panel by matrix-matrix products over
column strips.  ``b=1`` reproduces the classic eager per-step update.  With
``q=1`` the sketch selects one column per step; with ``q=b`` one LAPACK
``dgeqp3`` call (QR with column pivoting) on the sketch proposes the whole
panel's candidate columns up front and the sketch is corrected once per
panel, on its p x t side: with the panel's t columns of ``L`` split into
the unit lower ``Lpp`` over ``Ltp``, ``B[:, trail] -= B[:, panel] Lpp^-T
Ltp^T`` is one t x p triangular solve ``y = Lpp^-1 B[:, panel]^T`` and one
product ``Ltp @ y``.  Every swap, with either q, exchanges two columns of
the sketch.  ``dgeqp3`` scales its column norms, so they neither overflow
nor underflow and a power-of-two scaling of the sketch leaves the choice as
is.

Only the lower triangle of the active block ``A[k:, k:]`` is kept, as in
LAPACK ``dsytrf``/``dlasyf``, and ``A``, ``L`` and the panel's ``W`` are
stored column-major as there, so the columns the engine forms, writes and
multiplies are contiguous; ``A``'s and ``W``'s columns are padded, so that
at n = 1024 or 2048 their rows do not stride by a multiple of 4 KiB.  ``W``
is one buffer for the whole run, which each panel views without clearing:
a panel reads only what its own steps wrote there.  A column is read as
the row segment left of the diagonal plus the column segment from the
diagonal down; swaps touch the active block's lower triangle only, as
``dsyswapr`` does; and each strip of the trailing update covers its columns
from the diagonal down, so a panel of t columns costs about ``t m^2 / 2``
multiplies on an m x m block rather than ``t m^2``.  Each strip is one
BLAS ``dgemm`` (alpha = -1, beta = 1) that writes its columns of ``A`` in
place through the padded leading dimension, as ``dlasyf`` updates its
trailing block.  ``A``, ``L``, ``W`` and the sketch are bound once, when
they are allocated, and read back from their ``core.Buffer``; each call
hands ``core.dgemm`` blocks of them by offset, so a one-step panel pays no
per-call view checks.  The sketch is row-major p x n, bound as its
transpose; its downdates and projections run through the same ``dgemm``,
so every large product runs on one BLAS thread pool.
The strip products also update the upper half of each diagonal strip
square, whose values are never used: no result depends on the strict
upper triangle.  The rare paths that need the whole block (the guard's
fresh projection and the sketch audit) mirror a copy of it on demand,
where the stored block is the Schur complement.  Growth factors are not
tracked here: :func:`randldl.metrics.schur_snapshots` replays them from
the input and the finished factors.

A swap exchanges the rows of ``L`` only over the open block: the columns
from the first one not yet closed up to k, the current panel among them.
The open block closes at a panel end once it is at least ``max(b, 64)``
columns wide, recording ``perm`` there, and the rows of each closed block
are permuted once, after the last step, by every interchange made after it
closed: one gather per block, as LAPACK applies ``dlaswp`` after
``dlasyf``, rather than two strided row swaps per step over all of ``L``.

The columns a step forms are kept, keyed by label, until it ends: a swap
exchanges their two entries, and the elimination takes its pivot columns
from them.  A column formed again, or a diagonal entry taken as a dot
product, would round differently from the one the search read, so a 2x2
block could miss the determinant bound its search established; the rcp
search therefore forms column r whole for its diagonal entry.  The cost model charges every use as a formation.

The q = 1 sketch norms come from ``column_norms``, which sums the squares
as they stand and rescales by a power of two only when the largest sum
overflows or nears the subnormal range, so ``2**e * A`` selects as ``A``
does; the sums run over the sketch's rows in place.

A guarded mode watches the selected sketch column norm; when it falls below
``eps**delta * beta`` (``beta`` being the initial sketch norm), the sketch is
rebuilt from a fresh projection, and if the recomputed norm confirms the
collapse the remaining Schur complement is declared numerically zero and the
factorization finishes early with zero trailing blocks.

Operation counters tally a per-step cost model (search comparisons, sketch
maintenance, multiplier and update flops) rather than tracing every BLAS
instruction; see :class:`randldl.metrics.OpCounters`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.linalg import block_diag, solve_triangular

from .core import (
    Buffer,
    column_norms,
    dgemm,
    exchange,
    mirror_lower,
    require_disjoint,
    require_finite,
    require_int,
    require_square,
    require_symmetric,
    sym_swap,
)
from .metrics import GrowthStats, OpCounters, norm_1_2
from .pivot import (
    BK_ALPHA,
    SBKP_ALPHA,
    OffDiagTable,
    PivotDecision,
    PivotKind,
    _bbk_from_data,
    _bkpp_from_data,
    _offdiag_table,
    _sbkp_from_data,
)
from .sketch import partial_qrcp

__all__ = [
    "Strategy",
    "FactorConfig",
    "BlockDiag",
    "Factorization",
    "NumericalError",
    "PAT_SINGLE",
    "PAT_PAIR_START",
    "PAT_PAIR_END",
    "PAT_DEFICIENT",
    "factor",
    "reconstruct",
]

_EPS = float(np.finfo(np.float64).eps)

# Column-strip width of the trailing update.  Each strip also computes the
# upper half of its diagonal square, so narrower strips waste fewer flops,
# but each one is a separate dgemm call.  With the strips written in place,
# widths 128-256 tied within noise at n = 2048 and 128 ran fastest at
# n = 1024 (t = 64, one OpenBLAS thread of a 2-core x86-64 host).
_STRIP = 128

# Rook hops that form their column before a walk switches to the off-diagonal
# table.  On type2, whose walks visit every remaining column, the table makes
# each further hop a list lookup.  The other gallery families (type1, type3-8
# and type10 at n = 512, type6 also at 1024) never walk this far.  A walk that
# visits more columns runs long; the walk after a long one reads the table
# from its first hop, since a run of long walks needs the table at every step.
_ROOK_HOPS = 8

# Largest share of the next active block's columns that a long walk's
# one-step panel may leave stale for the off-diagonal table to be kept; past
# it the next walk builds the table whole.  Re-scanning stale columns one by
# one cost as much as one build at these shares of m: 0.47 at m = 8, 0.27 at
# 16, 0.13-0.20 for m = 32-256, 0.47 at 512 and 0.89 at 1024 (one core of
# the 2-core x86-64 host above).  A quarter stays within twice a build's
# cost throughout, and keeps type2's tables, 3 stale columns a step, down
# to m = 12.
_REFRESH = 0.25

# Spare entries after each column of the working copy of A.  When n is a
# multiple of 512 (n = 1024, 2048), a row of A, which every swap reads,
# would step by a multiple of 4 KiB and map all its entries to a few cache
# sets.  8 entries are one 64-byte line, so each column keeps its offset
# within a line.  sym_swap at n = 2048 took 10.6 us unpadded and 6.1 us
# padded, on one core of the 2-core x86-64 host of the timings above.
_PAD = 8

# Narrowest block of L's columns that closes.  Each closed block keeps a copy
# of perm past it, so at small b this bounds those copies by n**2 / 128
# entries in all; at the default b = 64 every panel end closes a block.
_CLOSE = 64

# Pattern labels, one per index of the factorization.
PAT_SINGLE = 0
PAT_PAIR_START = 1
PAT_PAIR_END = 2
PAT_DEFICIENT = 3


class NumericalError(RuntimeError):
    """Raised when the factorization meets a non-finite or impossible value.

    ``step`` is the index of the pivot block's first row and ``block`` its
    values (a 1x1 or 2x2 array); both are None when not known.
    """

    def __init__(self, message: str, step: int | None = None, block: np.ndarray | None = None):
        super().__init__(message)
        self.step = step
        self.block = block


class Strategy(str, Enum):
    RCP = "rcp"
    BKPP = "bkpp"
    BBK = "bbk"


@dataclass(frozen=True)
class FactorConfig:
    """Knobs for :func:`factor`.

    ``q`` must be 1 (one sketch pivot per step) or equal to ``b`` (one batch
    of sketch pivots per panel), and the sketch size ``p`` must be at least
    ``q``; only rcp keeps a sketch, so the other strategies take ``q = 1``
    only.  ``robust_r`` is the recompute budget of the guarded mode, armed
    by default; 0 disables the guard.  With ``q = b`` the guard reads the
    sketch only at a panel's start: zero columns met inside a panel are
    eliminated as zero 1x1 pivots until the next one starts, so the
    deficient tail can start later than with ``q = 1``.  ``audit_sketch``
    projects the active block at every panel end that leaves one; it is
    meant for experiments, not production solves, and does not change the
    pivots.  A run that is a single panel (n <= b, no step deferred) leaves
    no trailing block, so its audit records nothing:
    ``stats.sketch_drift == []``.  Only rcp keeps a sketch; the other
    strategies leave ``stats.sketch_drift`` None.  A config is validated
    once, here, and is then frozen: ``p``, ``b``, ``q``, ``seed`` and
    ``robust_r`` must be integers (NumPy's too, stored as ``int``), ``seed``
    non-negative, and ``audit_sketch`` a bool (NumPy's too, stored as
    ``bool``).
    """

    strategy: Strategy = Strategy.RCP
    p: int = 5
    b: int = 64
    q: int = 1
    seed: int = 0
    robust_r: int = 1
    audit_sketch: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "strategy", Strategy(self.strategy))
        for name in ("p", "b", "q", "seed", "robust_r"):
            object.__setattr__(self, name, require_int(getattr(self, name), name))
        if not isinstance(self.audit_sketch, (bool, np.bool_)):
            raise ValueError(f"audit_sketch must be a bool, got {self.audit_sketch!r}")
        object.__setattr__(self, "audit_sketch", bool(self.audit_sketch))
        if self.p < 1:
            raise ValueError("sketch size p must be positive")
        if self.b < 1:
            raise ValueError("panel width b must be positive")
        if self.q not in (1, self.b):
            raise ValueError(f"q must be 1 or b={self.b}, got {self.q}")
        if self.q > 1 and self.strategy is not Strategy.RCP:
            raise ValueError(
                f"q={self.q} selects sketch columns, but strategy {self.strategy.value!r} "
                "keeps no sketch; use q=1"
            )
        if self.p < self.q:
            raise ValueError(f"sketch size p={self.p} must be at least q={self.q}")
        if self.robust_r < 0:
            raise ValueError("robust_r must be non-negative")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class BlockDiag:
    """Block diagonal factor: an ordered tuple of (1,1) and (2,2) arrays.

    The blocks, finite and 2x2 ones symmetric, are copied into one read-only
    buffer, and the read-only arrays the solve reads are derived from it
    once: ``den``, each row's nonzero 1x1 pivot (else 1); ``pair_rows``, the
    first row of each nonsingular 2x2 block, and ``pair``, its d11, d21, d22
    and ``det = d11*d22 - d21*d21``; ``zero_rows``, the rows of singular
    blocks; and ``starts2``, the first row of every 2x2 block.
    """

    def __init__(self, blocks) -> None:
        arrays = [np.asarray(b, dtype=np.float64) for b in blocks]
        if any(b.shape not in ((1, 1), (2, 2)) for b in arrays):
            raise ValueError("diagonal blocks must be 1x1 or 2x2")
        sizes = np.array([b.shape[0] for b in arrays], dtype=np.int64)
        flat = _frozen(np.concatenate([b.ravel() for b in arrays]) if arrays else np.zeros(0))
        if not np.isfinite(flat).all():
            raise ValueError("D contains NaN or Inf")
        self._flat = flat  # max_abs reads it; d12 == d21 adds no new value
        offs = np.cumsum(sizes * sizes) - sizes * sizes  # where each block starts in flat
        self.blocks = tuple(
            flat[o : o + s * s].reshape(s, s) for s, o in zip(sizes.tolist(), offs.tolist())
        )
        self.dim = int(sizes.sum())
        starts = np.cumsum(sizes) - sizes
        one = sizes == 1
        o2 = offs[~one]  # a 2x2 block is stored as d11, d12, d21, d22
        if not np.array_equal(flat[o2 + 1], flat[o2 + 2]):
            raise ValueError("2x2 diagonal blocks must be symmetric")
        d1, starts1, starts2 = flat[offs[one]], starts[one], starts[~one]
        d11, d21, d22 = flat[o2], flat[o2 + 2], flat[o2 + 3]
        det = d11 * d22 - d21 * d21
        ok1, ok2 = d1 != 0.0, det != 0.0
        den = np.ones(self.dim)
        den[starts1[ok1]] = d1[ok1]
        self.den = _frozen(den)
        self.pair_rows = _frozen(starts2[ok2])
        self.pair = _frozen(np.stack((d11, d21, d22, det))[:, ok2])
        self.zero_rows = _frozen(np.concatenate((starts1[~ok1], starts2[~ok2], starts2[~ok2] + 1)))
        self.starts2 = _frozen(starts2)

    def to_dense(self) -> np.ndarray:
        return block_diag(*self.blocks) if self.blocks else np.zeros((0, 0))

    def max_abs(self) -> float:
        return float(np.abs(self._flat).max(initial=0.0))


@dataclass(frozen=True)
class Factorization:
    """Result of :func:`factor`: ``A[perm][:, perm] == L @ D @ L.T``.

    ``pattern[i]`` labels index i as a single pivot, the start or end of a
    2x2 pivot pair, or part of the numerically zero tail of a rank-deficient
    input.  ``L``, ``perm``, ``D``'s size and ``pattern``'s pairs are checked
    once, here, and then ``L``, ``perm`` and ``pattern`` are made read-only,
    so a solve need not check them again.
    """

    perm: np.ndarray
    L: np.ndarray
    D: BlockDiag
    pattern: np.ndarray
    stats: GrowthStats

    def __post_init__(self) -> None:
        if self.L.ndim != 2 or self.L.shape[0] != self.L.shape[1]:
            raise ValueError(f"L must be a square 2-D array, got shape {self.L.shape}")
        if not np.isfinite(self.L).all():
            raise ValueError("L contains NaN or Inf")
        n, perm = self.L.shape[0], self.perm
        # Given n integers, none negative, every count is 1 exactly when perm
        # holds each of 0..n-1 once.  bincount takes the integer dtypes that
        # cast safely to intp.
        if (
            perm.shape != (n,)
            or perm.dtype.kind not in "iu"
            or not np.can_cast(perm.dtype, np.intp)
            or perm.min(initial=0) < 0
            or (np.bincount(perm) != 1).any()
        ):
            raise ValueError(f"perm is not a permutation of 0..{n - 1}")
        if self.D.dim != n:
            raise ValueError(f"D covers {self.D.dim} rows, expected {n}")
        pattern, starts2 = self.pattern, self.D.starts2
        if (
            pattern.shape != (n,)
            or not np.array_equal(np.flatnonzero(pattern == PAT_PAIR_START), starts2)
            or not np.array_equal(np.flatnonzero(pattern == PAT_PAIR_END), starts2 + 1)
        ):
            raise ValueError("pattern's 2x2 pairs do not match D's 2x2 blocks")
        for a in (self.L, perm, self.pattern):
            a.flags.writeable = False

    @property
    def n(self) -> int:
        return self.perm.size

    @property
    def deficient_from(self) -> int | None:
        """First index of the numerically zero tail, or None if full rank."""
        hits = np.nonzero(self.pattern == PAT_DEFICIENT)[0]
        return int(hits[0]) if hits.size else None


def _block_multipliers(
    c0: np.ndarray, c1: np.ndarray | None, k: int, alpha: float
) -> tuple[np.ndarray, np.ndarray, float]:
    """Multipliers, diagonal block and largest |multiplier| from pivot column(s).

    ``c0`` (and ``c1`` for a 2x2 block) hold the pivot columns of the active
    Schur complement starting at the pivot row, which is row ``k``.  The 2x2
    case solves against the adjugate, and the stored block is symmetrized
    from the lower entry.  A block the engine cannot use raises
    :class:`NumericalError`: a zero 1x1 pivot under a nonzero column, a
    singular 2x2 block, non-finite block or multipliers, or a 2x2 block
    below the determinant bound of the strategy's ``alpha``.
    """
    if c1 is None:
        d = float(c0[0])
        entries = (d,)
        sub = c0[1:]
        dblock = np.array([[d]])
        if sub.any():
            if d == 0.0:
                raise NumericalError(
                    f"zero 1x1 pivot under a nonzero column at step {k}", k, dblock
                )
            lcols = (sub / d)[:, None]
        else:
            lcols = np.zeros((sub.size, 1))
    else:
        d11, d21, d22 = float(c0[0]), float(c0[1]), float(c1[1])
        entries = (d11, d21, d22)
        dblock = np.array([[d11, d21], [d21, d22]])
        det = d11 * d22 - d21 * d21
        if det == 0.0:
            raise NumericalError(f"singular 2x2 pivot block at step {k}", k, dblock)
        # Columns (a1 d22 - d21 a2) / det and (d11 a2 - d21 a1) / det, each
        # rounded as written, formed in place in one column-major array.
        a1, a2 = c0[2:], c1[2:]
        lcols = np.empty((a1.size, 2), order="F")
        np.multiply(a1, d22, out=lcols[:, 0])
        np.multiply(a2, d11, out=lcols[:, 1])
        lcols[:, 0] -= d21 * a2
        lcols[:, 1] -= d21 * a1
        lcols /= det
    # A NaN or an infinity among the multipliers makes their maximum one too.
    lmax = float(np.abs(lcols).max(initial=0.0))
    if not (all(map(math.isfinite, entries)) and math.isfinite(lmax)):
        raise NumericalError(f"non-finite pivot data at step {k}", k, dblock)
    # Every strategy's 2x2 acceptance implies |det| > (1-alpha^2) d21^2;
    # anything below that (modulo rounding) marks a broken invariant.
    if c1 is not None and abs(det) < (1.0 - alpha * alpha) * d21 * d21 * (1.0 - 1e-12):
        raise NumericalError(f"2x2 block at step {k} violates its determinant bound", k, dblock)
    return lcols, dblock, lmax


class _Engine:
    """One factorization run; see the module docstring for the plan."""

    def __init__(self, a: np.ndarray, cfg: FactorConfig):
        a = require_square(a, "A")
        self.input_norm_1inf = require_finite(a, "input matrix")
        a = require_symmetric(a, "A")
        self.cfg = cfg
        self.n = n = a.shape[0]
        # a is symmetric, so its rows copied into a C buffer and read through
        # the transpose are A column-major, each column _PAD entries apart.
        padded = np.empty((n, n + _PAD))
        padded[:, :n] = a
        # Each buffer that dgemm reads or writes is bound once, as it is
        # made, and read back from its Buffer (the A, L, W and B properties),
        # so the array and the pointer BLAS writes through cannot drift apart.
        self.buf_A = Buffer(padded.T[:n], "A")
        self.buf_L = Buffer(np.eye(n, order="F"), "L")
        self.perm = np.arange(n, dtype=np.int64)
        # L's rows follow every swap over columns open0:k only; each closed
        # block (c0, c1, perm[c1:] when it closed) is gathered once by run.
        self.open0 = 0
        self.closed: list[tuple[int, int, np.ndarray]] = []
        # Columns formed in this step, keyed by label.
        self.cols: dict[int, np.ndarray] = {}
        self.pattern = np.zeros(n, dtype=np.int8)
        self.blocks: list[np.ndarray] = []
        # Largest |multiplier| so far: every strictly lower entry of L is
        # written once by _eliminate, and swaps only move entries between rows.
        self.max_multiplier = 0.0
        self.counters = OpCounters()
        self.k = 0

        self.strategy = cfg.strategy
        self.alpha = SBKP_ALPHA if self.strategy is Strategy.RCP else BK_ALPHA

        # The sketch B = Omega A exists for rcp only (see the B property).
        # Every Omega, including the guard's fresh ones, comes from one
        # Philox stream, so a run is reproducible given the seed.
        self.buf_B: Buffer | None = None
        self.omega: np.ndarray | None = None
        self.p = cfg.p
        self.recompute_count = 0
        if self.strategy is Strategy.RCP:
            self.rng = np.random.Generator(np.random.Philox(cfg.seed))
            self.omega = self.rng.standard_normal((cfg.p, n))
            self.buf_B = Buffer(self._project(self.omega, self.A).T, "B")
            if not cfg.audit_sketch:
                self.omega = None

        self.robust_armed = self.strategy is Strategy.RCP and cfg.robust_r >= 1
        self.delta = 1.0 / cfg.robust_r if self.robust_armed else 0.0
        self.threshold = _EPS**self.delta if self.robust_armed else 0.0
        self.beta = norm_1_2(self.B) if self.robust_armed else 0.0

        # Omega is kept only for an audited sketch, so only rcp audits.  Its
        # columns stay in label order (column perm[i] meets position i), so
        # swaps leave it alone.
        self.drift: list[float] | None = [] if self.omega is not None else None
        self.input_norm_12 = norm_1_2(self.A) if self.omega is not None else 0.0

        # Panel state, re-initialized by each _run_panel call.  W holds the
        # panel's pivot columns, column t from row k - k0 down, as the step
        # that eliminated them left them.  Every read takes rows k - k0 to
        # n - k0 of columns < t, all written by then, so each panel reuses
        # one buffer without clearing it.  The padded leading dimension
        # keeps W's rows, which swaps, column forming and the strips read,
        # off 4 KiB strides, as for A.  W is allocated after the sketch:
        # allocated first, it left the heap laid out otherwise, and the
        # 64-column solves timed after a q = b factor ran about 4 % slower.
        self.k0 = 0
        self.t = 0
        self.buf_W = Buffer(np.empty((n + _PAD, min(cfg.b + 1, n)), order="F"), "W")
        sketch = (self.buf_B,) if self.buf_B is not None else ()
        require_disjoint(self.buf_A, self.buf_L, self.buf_W, *sketch)
        # Whether the last step's rook walk ran long: past _ROOK_HOPS columns,
        # or deferred for want of a table; a step with no walk clears it.  A
        # long walk ends its panel, so only a panel's first step sees it set.
        self.last_walk_long = False
        # The off-diagonal table a run of long walks keeps (see _long_walk),
        # None between runs, and the columns to re-scan before a walk reads it.
        self.table: OffDiagTable | None = None
        self.stale: list[int] = []

    # -- bound buffers ---------------------------------------------------

    @property
    def A(self) -> np.ndarray:
        """The padded working copy, column-major; its lower triangle is live."""
        return self.buf_A.array

    @property
    def L(self) -> np.ndarray:
        return self.buf_L.array

    @property
    def W(self) -> np.ndarray:
        return self.buf_W.array

    @property
    def B(self) -> np.ndarray | None:
        """The p x n sketch, row-major (its Buffer binds B.T), or None without one."""
        return None if self.buf_B is None else self.buf_B.array.T

    # -- bookkeeping ---------------------------------------------------

    def _swap(self, i: int, j: int) -> None:
        """Relabel positions i and j across every live array."""
        if i == j:
            return
        k, t = self.k, self.t
        sym_swap(self.A[k:, k:], i - k, j - k)
        if k > self.open0:
            L = self.L
            exchange(L[i, self.open0 : k], L[j, self.open0 : k])
        if t:
            exchange(self.W[i - self.k0, :t], self.W[j - self.k0, :t])
        if self.buf_B is not None:
            b = self.B
            exchange(b[:, i], b[:, j])
        self.perm[i], self.perm[j] = self.perm[j], self.perm[i]
        for c in self.cols.values():
            c[i - k], c[j - k] = c[j - k], c[i - k]

    def _form_column(self, j: int) -> np.ndarray:
        """Column j of the active Schur complement (rows k:), panel-corrected.

        Always a new array: the step's cache exchanges its entries in place.
        """
        k, t = self.k, self.t
        c = self._line(j)
        if t:
            return c - self.L[k:, self.k0 : self.k0 + t] @ self.W[j - self.k0, :t]
        return c if j > k else c.copy()

    def _line(self, j: int) -> np.ndarray:
        """Column j of the stored active block from row k, uncorrected.

        The row segment left of the diagonal, then the column segment from
        the diagonal down; for j = k a view of A.
        """
        k, A = self.k, self.A
        return np.concatenate((A[j, k:j], A[j:, j])) if j > k else A[k:, k]

    def _column(self, j: int, charge: int | None = None) -> np.ndarray:
        """Column j for the search or the elimination.

        The step's first request forms it; later ones take it as formed,
        with the entries of every swap since exchanged.  Each request is
        charged ``charge`` multiply-adds, by default a whole formation.
        """
        label = int(self.perm[j])
        c = self.cols.get(label)
        if c is None:
            if len(self.cols) > 2:
                # A swap can bring only column k and the last two formed to
                # k or k + 1; a rook walk forms more, which are not read again.
                del self.cols[list(self.cols)[1]]
            c = self.cols[label] = self._form_column(j)
        if self.t:
            self._charge(self.t * c.size if charge is None else charge)
        return c

    def _diag_entry(self, j: int) -> float:
        """Diagonal entry j, read off column j and charged as one dot product."""
        return float(self._column(j, self.t)[j - self.k])

    def _charge(self, flops: int) -> None:
        self.counters.mults += flops
        self.counters.adds += flops

    def _apply_trailing(self) -> None:
        """Push the panel's delayed updates into the trailing lower triangle."""
        k, k0, t, n = self.k, self.k0, self.t, self.n
        m = n - k
        if t == 0 or m == 0:
            return
        # Each strip is one dgemm into A, in place: A[c0:, c0:c1] -=
        # L[c0:, k0:k0+t] @ W[c0-k0:c1-k0, :t].T.  OpenBLAS may hand a
        # 1-column dgemm to gemv, which rounds differently, so the last
        # strip absorbs a 1-column remainder.
        cuts = (list(range(k, n - 1, _STRIP)) or [k]) + [n]
        for c0, c1 in zip(cuts, cuts[1:]):
            dgemm(
                n - c0, c1 - c0, t,
                -1.0, (self.buf_L, c0, k0), (self.buf_W, c0 - k0, 0),
                1.0, (self.buf_A, c0, c0), trans_b=True,
            )
        self._charge(t * (m * (m + 1)) // 2)

    def _gather_closed_blocks(self) -> None:
        """Permute each closed block's rows of L by every swap made after it closed."""
        n = self.n
        where = np.empty(n, dtype=np.int64)
        lt = self.L.T
        for c0, c1, then in self.closed:
            where[then] = np.arange(c1, n)  # each label's position at the close
            lt[c0:c1, c1:] = np.take(lt[c0:c1], where[self.perm[c1:]], axis=1)

    def _terminate_deficient(self) -> None:
        """Declare the tail from k numerically zero; moving k to n ends the run."""
        for j in range(self.k, self.n):
            self.blocks.append(np.zeros((1, 1)))
            self.pattern[j] = PAT_DEFICIENT
        self.k = self.n

    # -- sketch projection and guarded mode ------------------------------

    @staticmethod
    def _project(omega: np.ndarray, a: np.ndarray) -> np.ndarray:
        """``omega @ a`` as a new row-major array, for a column-major ``a``.

        It is formed as ``(a.T @ omega.T).T``, the call NumPy's ``omega @ a``
        makes: OpenBLAS runs that tall product faster than the wide one (4.7
        against 6.1 ms at n = 2048, p = 5).
        """
        (p, k), m = omega.shape, a.shape[1]
        out_t = np.empty((m, p), order="F")
        dgemm(
            m, p, k, 1.0, (Buffer(a, "a"), 0, 0), (Buffer(omega.T, "omega.T"), 0, 0),
            0.0, (Buffer(out_t, "out"), 0, 0), trans_a=True,
        )
        return out_t.T

    def _sketch_pivot(self) -> int | None:
        """Position of the largest sketch column norm, or None if the guard trips.

        A largest norm below ``threshold * beta`` trips the guard.  Inside a
        panel the step defers, to be retested where the stored block is the
        Schur complement; there the sketch is recomputed from a fresh
        projection and the threshold relaxed, and if the fresh norms confirm
        the collapse the tail is declared deficient, which moves k to n.
        """
        k, m = self.k, self.n - self.k
        norms = column_norms(self.B[:, k:])
        j = int(norms.argmax())
        self.counters.comps += m - 1
        self._charge(self.p * (m - 1))
        if not (self.robust_armed and norms[j] < self.threshold * self.beta):
            return k + j
        if self.t:
            return None
        omega = self.rng.standard_normal((self.p, m))
        self.B[:, k:] = self._project(omega, self._active_block())
        if self.omega is not None:
            self.omega[:, self.perm[k:]] = omega
        self.recompute_count += 1
        self.delta += 1.0 / self.cfg.robust_r
        self.threshold = _EPS**self.delta
        norms = column_norms(self.B[:, k:])
        j = int(norms.argmax())
        if norms[j] < self.threshold * self.beta:
            self._terminate_deficient()
            return None
        return k + j

    # -- pivot selection ---------------------------------------------------

    def _long_walk(self) -> OffDiagTable | None:
        """Off-diagonal table for a long rook walk, or None inside a panel.

        With an empty panel the stored lower triangle of the active block is
        the Schur complement itself, so the table is exact; inside a panel
        it is not, and the step defers.  The first walk of a run of long
        ones builds the whole table; each later one re-scans only the
        columns that ``_carry_table`` marked stale, as ``_offdiag_table``
        scans them.  Neither reads a column through ``_column``, so no
        counter sees the difference.
        """
        if self.t:
            return None
        k = self.k
        if self.table is None:
            absdiag, vmax, vidx = _offdiag_table(self.A[k:, k:])
            self.table = ([0.0] * k + absdiag, [0.0] * k + vmax, [0] * k + [k + j for j in vidx])
        else:
            absdiag, vmax, vidx = self.table
            for c in self.stale:
                line = np.abs(self._line(c))
                absdiag[c] = float(line[c - k])
                line[c - k] = -np.inf
                j = int(line.argmax())
                vmax[c], vidx[c] = float(line[j]), k + j
        self.stale = []
        return self.table

    def _carry_table(self, decision: PivotDecision) -> None:
        """Keep the table across the one-step panel of a long walk at k.

        Called before the step's swaps.  X is the positions the step
        touches: k, k + 1 for a 2x2 block, ``r`` and ``p``.  A column outside
        X whose entries in the rows X are all zero, and whose recorded
        maximum lies outside X, keeps its entry bitwise: the swaps move only
        zeros in it, and its rows of L and of the pivot columns are zero, so
        the update subtracts exact zeros.  Its maximum can lie in X only if
        the column is zero off its diagonal, and then it lies at k.  Every
        other column of the next active block is stale.  When more than
        ``_REFRESH`` of them are, the table is dropped, to be built whole.
        """
        k, s, n = self.k, decision.s, self.n
        touched = {x for x in (k, k + s - 1, decision.r, decision.p) if x is not None}
        stale = set(touched)
        for x in touched:
            stale.update((np.flatnonzero(self._line(x)) + k).tolist())
        vidx = self.table[2]
        if k in vidx[k + s :]:  # only a zero column records k; few have one
            stale.update(c for c in range(k + s, n) if vidx[c] == k)
        self.stale = [c for c in stale if c >= k + s]
        if len(self.stale) > _REFRESH * (n - k - s):
            self.table = None

    def _decide(self) -> PivotDecision:
        """Pivot decision at step k."""
        k, n = self.k, self.n
        c_k = self._column(k)
        sub = np.abs(c_k[1:])
        a_kk = float(c_k[0])
        if self.strategy is Strategy.RCP:
            return _sbkp_from_data(
                a_kk=a_kk,
                sub=sub,
                diag_at=self._diag_entry,
                k=k,
                alpha=self.alpha,
                counters=self.counters,
            )
        if self.strategy is Strategy.BKPP:
            return _bkpp_from_data(
                a_kk=a_kk,
                sub=sub,
                column_at=self._column,
                k=k,
                alpha=self.alpha,
                counters=self.counters,
            )
        decision = _bbk_from_data(
            a_kk=a_kk,
            sub=sub,
            column_at=self._column,
            k=k,
            n=n,
            alpha=self.alpha,
            counters=self.counters,
            long_walk=self._long_walk,
            hop_limit=0 if self.last_walk_long else _ROOK_HOPS,
        )
        self.last_walk_long = decision.hops > _ROOK_HOPS or decision.kind is PivotKind.DEFER
        if self.table is not None:
            # A long walk read the table at t = 0 and ends its panel; any
            # other step widens the panel or eliminates without the table.
            if decision.hops > _ROOK_HOPS:
                self._carry_table(decision)
            else:
                self.table = None
        return decision

    # -- elimination -----------------------------------------------------

    def _eliminate(self, decision: PivotDecision) -> None:
        """Eliminate the pivot block at k, from the columns its search formed."""
        k, n = self.k, self.n
        s = decision.s
        c0 = self._column(k)
        c1 = self._column(k + 1) if s == 2 else None
        lcols, dblock, lmax = _block_multipliers(c0, c1, k, self.alpha)
        self.L[k + s :, k : k + s] = lcols
        self.max_multiplier = max(self.max_multiplier, lmax)
        w_rows = slice(k - self.k0, n - self.k0)
        self.W[w_rows, self.t] = c0
        if s == 2:
            self.W[w_rows, self.t + 1] = c1
        self.blocks.append(dblock)
        if s == 1:
            self.pattern[k] = PAT_SINGLE
        else:
            self.pattern[k] = PAT_PAIR_START
            self.pattern[k + 1] = PAT_PAIR_END
        w = n - k - s
        if decision.kind is not PivotKind.SKIP:
            if s == 1:
                self.counters.divs += w
            else:
                self.counters.divs += 2 * w
                self.counters.mults += 4 * w + 2
                self.counters.adds += 2 * w + 1
        if self.buf_B is not None and self.cfg.q == 1 and w > 0:
            # B[:, k+s:] -= B[:, k:k+s] @ lcols.T, in place on the bound B.T
            # as B.T[k+s:] -= lcols @ B.T[k:k+s], with lcols read back from L.
            dgemm(
                w, self.p, s,
                -1.0, (self.buf_L, k + s, k), (self.buf_B, k, 0), 1.0, (self.buf_B, k + s, 0),
            )
            self._charge(s * self.p * w)

    # -- diagnostics -----------------------------------------------------

    def _active_block(self) -> np.ndarray:
        """Full symmetric copy of the active block, mirrored from its lower triangle."""
        return mirror_lower(self.A[self.k :, self.k :].copy(order="F"))

    def _record_drift(self) -> None:
        k = self.k
        # Omega is kept in label order; the gather puts it in position order,
        # row-major (a fancy index would return it column-major).
        exact = self._project(np.take(self.omega, self.perm[k:], axis=1), self._active_block())
        err = norm_1_2(self.B[:, k:] - exact)
        denom = self.input_norm_12
        self.drift.append(err / denom if denom else err)

    # -- main loop -------------------------------------------------------

    def run(self) -> Factorization:
        n = self.n
        if self.robust_armed and self.beta == 0.0:
            self._terminate_deficient()
        # Every non-finite pivot, multiplier or entry of L raises NumericalError
        # by step, so NumPy's warnings on the way there would only precede it.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            while self.k < n:
                self._run_panel()
        d = BlockDiag(self.blocks)
        dmax = d.max_abs()
        if self.input_norm_1inf == 0.0:
            rho_cheap = 1.0 if dmax == 0.0 else math.inf
        else:
            rho_cheap = dmax / self.input_norm_1inf
        stats = GrowthStats(
            rho_cheap=rho_cheap,
            max_multiplier=self.max_multiplier,
            counters=self.counters,
            sketch_drift=self.drift,
            recompute_count=self.recompute_count,
        )
        self._gather_closed_blocks()
        return Factorization(
            perm=self.perm,
            L=self.L,
            D=d,
            pattern=self.pattern,
            stats=stats,
        )

    def _run_panel(self) -> None:
        n, k0 = self.n, self.k
        self.k0 = k0
        width = min(self.cfg.b, n - k0)
        self.t = 0
        self.cols.clear()
        batch = self.buf_B is not None and self.cfg.q > 1
        if batch and n - k0 > 1:
            self._panel_preselect(width)
        # A confirmed collapse leaves k = n and t = 0: the rest does nothing.
        while self.k < n and self.t < width:
            if not self._step(width):
                break
        self._apply_trailing()
        k, t = self.k, self.t
        if batch and t > 0 and k < n:
            # One correction per panel: B(:,trail) -= B(:,panel) Lpp^-T Ltp^T,
            # formed on its p x t side.  On the bound B.T that is
            # B.T[k:] -= L[k:, k0:k] @ y, with y = Lpp^-1 B.T[k0:k] (t x p),
            # and the product reads Ltp in place.
            y = solve_triangular(self.L[k0:k, k0:k], self.B[:, k0:k].T, lower=True, unit_diagonal=True)
            dgemm(
                n - k, self.p, t,
                -1.0, (self.buf_L, k, k0), (Buffer(y, "y"), 0, 0), 1.0, (self.buf_B, k, 0),
            )
            self._charge(self.p * t * (t - 1) // 2 + self.p * t * (n - k))
        if self.drift is not None and t > 0 and k < n:
            self._record_drift()
        if k - self.open0 >= max(self.cfg.b, _CLOSE):
            self.closed.append((self.open0, k, self.perm[k:].copy()))
            self.open0 = k

    def _panel_preselect(self, width: int) -> None:
        """Swap a q=b panel's sketch-selected columns to its front, behind the guard."""
        k, m = self.k, self.n - self.k
        if self._sketch_pivot() is None:
            return
        # partial_qrcp reports positions before any swap.  A selected label
        # still sits there unless an earlier swap displaced it, and moved
        # holds where each displaced label went.
        positions = (k + np.array(partial_qrcp(self.B[:, k:], width))).tolist()
        labels = self.perm[positions].tolist()
        moved: dict[int, int] = {}
        for j, (pos, label) in enumerate(zip(positions, labels)):
            at = moved.get(label, pos)
            self._swap(k + j, at)
            moved[int(self.perm[at])] = at
            self.counters.comps += m - 1 - j
            self._charge(2 * self.p * (m - j))

    def _step(self, width: int) -> bool:
        """One pivot step at k; False ends the panel, with or without a pivot."""
        k, n, t = self.k, self.n, self.t
        m = n - k
        self.cols.clear()
        if self.buf_B is not None and self.cfg.q == 1 and m > 1:
            j = self._sketch_pivot()
            if j is None:
                return False
            self._swap(k, j)
        comps = self.counters.comps
        decision = self._decide()
        if decision.kind is PivotKind.DEFER:
            # The walk outgrew its hop limit inside the panel.  Its rerun at
            # the next panel's start is charged the whole search; the panel
            # corrections already formed stay charged.
            self.counters.comps = comps
            return False
        if decision.s == 2 and t > 0 and t + 2 > width:
            return False  # 2x2 would overflow the panel; restart fresh
        if decision.kind is PivotKind.ONE_BY_ONE_SWAP_R:
            self._swap(k, decision.r)
        elif decision.kind is PivotKind.TWO_BY_TWO:
            if decision.p is not None:
                self._swap(k, decision.p)
            if decision.r != k + 1:
                self._swap(k + 1, decision.r)
        self._eliminate(decision)
        self.k += decision.s
        self.t += decision.s
        # While walks run long, each panel is this one step: the next walk
        # then starts again from the exact Schur complement.
        return decision.hops <= _ROOK_HOPS


def factor(a: np.ndarray, cfg: FactorConfig | None = None, **overrides) -> Factorization:
    """Factor a dense symmetric matrix as ``A[perm][:, perm] = L D L.T``.

    Pass either a prebuilt :class:`FactorConfig` or keyword overrides for
    its fields, e.g. ``factor(a, strategy="bbk", b=1)``.
    """
    if cfg is not None and overrides:
        raise ValueError("pass either cfg or keyword overrides, not both")
    if cfg is None:
        cfg = FactorConfig(**overrides)
    return _Engine(a, cfg).run()


def reconstruct(f: Factorization) -> np.ndarray:
    """Assemble ``L @ D @ L.T`` (equals the permuted input up to rounding)."""
    return f.L @ f.D.to_dense() @ f.L.T
