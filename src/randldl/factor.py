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
  restores width ``b``.  Every hop is still charged the ``m - 2``
  comparisons of a column scan, and a deferred search is charged only once,
  by its rerun.

Elimination is organized in panels of width ``b``.  Inside a panel only the
current pivot columns are updated (each formed from the frozen trailing
matrix plus a correction against the panel's earlier columns); the trailing
Schur complement is rebuilt once per panel by matrix-matrix products over
column strips.  ``b=1`` reproduces the classic eager per-step update.  With
``q=1`` the sketch selects one column per step; with ``q=b`` one LAPACK
``dgeqp3`` call (QR with column pivoting) on the sketch proposes the whole
panel's candidate columns up front and the sketch is corrected once per
panel.  ``dgeqp3`` scales its column norms, so they neither overflow nor
underflow and a power-of-two scaling of the sketch leaves the choice as is.

Only the lower triangle of the active block ``A[k:, k:]`` is kept, as in
LAPACK ``dsytrf``/``dlasyf``.  A column is read as the row segment left of
the diagonal plus the column segment from the diagonal down; swaps touch
the active block's lower triangle only, as ``dsyswapr`` does; and each
strip of the trailing update covers its columns from the diagonal down, so
a panel of t columns costs about ``t m^2 / 2`` multiplies on an m x m block
rather than ``t m^2``.  The strip products also update the upper half of
each diagonal strip square, whose values are never used: no result depends
on the strict upper triangle.  The rare paths that need the whole block
(the guard's fresh projection, full growth tracking and the sketch audit)
mirror a copy of it on demand.

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
from scipy.linalg import solve_triangular

from .core import (
    column_norms,
    exchange,
    identity_permutation,
    mirror_lower,
    require_square,
    require_symmetric,
    sym_swap,
)
from .metrics import (
    GrowthStats,
    OpCounters,
    growth_from_snapshots,
    linv_norm1,
    norm_1,
    norm_1_2,
    norm_1_inf,
)
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
    "GrowthTracking",
    "FactorConfig",
    "BlockDiag",
    "Factorization",
    "NumericalError",
    "PAT_SINGLE",
    "PAT_PAIR_START",
    "PAT_PAIR_END",
    "PAT_DEFICIENT",
    "factor",
    "factor_robust",
    "reconstruct",
]

_EPS = float(np.finfo(np.float64).eps)

# Column-strip width of the trailing update.  Each strip also computes the
# upper half of its diagonal square, so narrower strips waste fewer flops,
# but each one is a separate GEMM call.  Widths 128-256 ran fastest for
# m = 512-2048, t = 64 on one OpenBLAS thread of a 2-core x86-64 host.
_STRIP = 128

# Rook hops that form their column before a walk switches to the off-diagonal
# table.  On type2, whose walks visit every remaining column, the table makes
# each further hop a list lookup.  The other gallery families (type1, type3-8
# and type10 at n = 512, type6 also at 1024) never walk this far.
_ROOK_HOPS = 8

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


class GrowthTracking(str, Enum):
    CHEAP = "cheap"
    FULL = "full"


@dataclass(frozen=True)
class FactorConfig:
    """Knobs for :func:`factor`.

    ``q`` must be 1 (one sketch pivot per step) or equal to ``b`` (one batch
    of sketch pivots per panel), and the sketch size ``p`` must be at least
    ``q``.  ``robust_r`` is the recompute budget of the guarded mode; 0
    disables the guard entirely.  ``track_growth="full"`` and
    ``audit_sketch`` both force eager (width-1) panels so that every Schur
    complement is materialized for inspection; they change the asymptotic
    cost and are meant for experiments, not production solves.  A config is
    validated once, here, and is then frozen.
    """

    strategy: Strategy = Strategy.RCP
    p: int = 5
    b: int = 64
    q: int = 1
    seed: int = 0
    robust_r: int = 1
    track_growth: GrowthTracking = GrowthTracking.CHEAP
    audit_sketch: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "strategy", Strategy(self.strategy))
        object.__setattr__(self, "track_growth", GrowthTracking(self.track_growth))
        if self.p < 1:
            raise ValueError("sketch size p must be positive")
        if self.b < 1:
            raise ValueError("panel width b must be positive")
        if self.q not in (1, self.b):
            raise ValueError(f"q must be 1 or b={self.b}, got {self.q}")
        if self.p < self.q:
            raise ValueError(f"sketch size p={self.p} must be at least q={self.q}")
        if self.robust_r < 0:
            raise ValueError("robust_r must be non-negative")


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class BlockDiag:
    """Block diagonal factor: an ordered tuple of (1,1) and (2,2) arrays.

    The blocks are copied into one read-only buffer at construction, and the
    arrays that the solve and ``max_abs`` read are derived from it once:
    ``starts1`` and ``d1`` (start index and value of each 1x1 block), and
    ``starts2``, ``d11``, ``d21``, ``d22`` and ``det = d11*d22 - d21*d21``
    for the 2x2 blocks, which must be symmetric.  All of them are read-only,
    so they cannot fall out of step with the blocks.
    """

    def __init__(self, blocks) -> None:
        arrays = [np.asarray(b, dtype=np.float64) for b in blocks]
        if any(b.shape not in ((1, 1), (2, 2)) for b in arrays):
            raise ValueError("diagonal blocks must be 1x1 or 2x2")
        sizes = np.array([b.shape[0] for b in arrays], dtype=np.int64)
        flat = _frozen(np.concatenate([b.ravel() for b in arrays]) if arrays else np.zeros(0))
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
        self.starts1 = _frozen(starts[one])
        self.d1 = _frozen(flat[offs[one]])
        self.starts2 = _frozen(starts[~one])
        self.d11 = _frozen(flat[o2])
        self.d21 = _frozen(flat[o2 + 2])
        self.d22 = _frozen(flat[o2 + 3])
        self.det = _frozen(self.d11 * self.d22 - self.d21 * self.d21)

    def to_dense(self) -> np.ndarray:
        n = self.dim
        d = np.zeros((n, n))
        i = 0
        for blk in self.blocks:
            s = blk.shape[0]
            d[i : i + s, i : i + s] = blk
            i += s
        return d

    def max_abs(self) -> float:
        entries = np.concatenate((self.d1, self.d11, self.d21, self.d22))
        return float(np.abs(entries).max(initial=0.0))


@dataclass(frozen=True)
class Factorization:
    """Result of :func:`factor`: ``A[perm][:, perm] == L @ D @ L.T``.

    ``pattern[i]`` labels index i as a single pivot, the start or end of a
    2x2 pivot pair, or part of the numerically zero tail of a rank-deficient
    input.  ``L`` is checked to be finite and ``perm`` to be a permutation
    once, here, and then they and ``pattern`` are made read-only, so a solve
    need not check them again.
    """

    perm: np.ndarray
    L: np.ndarray
    D: BlockDiag
    pattern: np.ndarray
    stats: GrowthStats

    def __post_init__(self) -> None:
        if not np.isfinite(self.L).all():
            raise ValueError("L contains NaN or Inf")
        n, perm = self.L.shape[0], self.perm
        # Given n entries, none negative, every count is 1 exactly when perm
        # holds each of 0..n-1 once.
        if perm.shape != (n,) or perm.min(initial=0) < 0 or (np.bincount(perm) != 1).any():
            raise ValueError(f"perm is not a permutation of 0..{n - 1}")
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
) -> tuple[np.ndarray, np.ndarray]:
    """Multipliers and diagonal block from updated pivot column(s).

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
        dblock = np.array([[d11, d21], [d21, d22]])
        det = d11 * d22 - d21 * d21
        if det == 0.0:
            raise NumericalError(f"singular 2x2 pivot block at step {k}", k, dblock)
        a1, a2 = c0[2:], c1[2:]
        l1 = (a1 * d22 - d21 * a2) / det
        l2 = (d11 * a2 - d21 * a1) / det
        lcols = np.column_stack([l1, l2])
    if not np.isfinite(dblock).all() or not np.isfinite(lcols).all():
        raise NumericalError(f"non-finite pivot data at step {k}", k, dblock)
    # Every strategy's 2x2 acceptance implies |det| > (1-alpha^2) d21^2;
    # anything below that (modulo rounding) marks a broken invariant.
    if c1 is not None and abs(det) < (1.0 - alpha * alpha) * d21 * d21 * (1.0 - 1e-12):
        raise NumericalError(f"2x2 block at step {k} violates its determinant bound", k, dblock)
    return lcols, dblock


class _Engine:
    """One factorization run; see the module docstring for the plan."""

    def __init__(self, a: np.ndarray, cfg: FactorConfig):
        a = require_square(a, "A")
        # One pass each for the largest and smallest entry: a NaN propagates
        # into both and an infinity reaches one of them, and together they
        # give max |a_ij| without an n x n temporary.  They run before the
        # symmetry check, which a NaN would fail (NaN != NaN).
        hi, lo = float(a.max()), float(a.min())
        if not (math.isfinite(hi) and math.isfinite(lo)):
            raise ValueError("input matrix contains NaN or Inf")
        a = require_symmetric(a, "A")
        self.input_norm_1inf = max(hi, -lo)
        self.cfg = cfg
        self.n = a.shape[0]
        n = self.n
        self.A = np.array(a, dtype=np.float64, copy=True)
        self.L = np.eye(n)
        self.perm = identity_permutation(n)
        self.pattern = np.zeros(n, dtype=np.int8)
        self.blocks: list[np.ndarray] = []
        # Largest |multiplier| so far: every strictly lower entry of L is
        # written once by _eliminate, and swaps only move entries between rows.
        self.max_multiplier = 0.0
        self.counters = OpCounters()
        self.k = 0

        self.eager = cfg.track_growth is GrowthTracking.FULL or cfg.audit_sketch
        self.b_eff = 1 if self.eager else cfg.b
        self.q_eff = 1 if self.eager else cfg.q

        self.strategy = cfg.strategy
        self.alpha = SBKP_ALPHA if self.strategy is Strategy.RCP else BK_ALPHA

        # The sketch B = Omega A exists for rcp only.  Every Omega, including
        # the guard's fresh ones, comes from one Philox stream, so a run is
        # reproducible given the seed.
        self.B: np.ndarray | None = None
        self.omega: np.ndarray | None = None
        self.p = cfg.p
        self.recompute_count = 0
        if self.strategy is Strategy.RCP:
            self.rng = np.random.Generator(np.random.Philox(cfg.seed))
            self.omega = self.rng.standard_normal((cfg.p, n))
            self.B = self.omega @ self.A
            if not cfg.audit_sketch:
                self.omega = None

        self.robust_armed = self.strategy is Strategy.RCP and cfg.robust_r >= 1
        self.delta = 1.0 / cfg.robust_r if self.robust_armed else 0.0
        self.threshold = _EPS**self.delta if self.robust_armed else 0.0
        self.beta = norm_1_2(self.B) if self.robust_armed else 0.0

        self.snapshots: list[tuple[float, float]] | None = (
            [] if cfg.track_growth is GrowthTracking.FULL else None
        )
        self.drift: list[float] | None = [] if cfg.audit_sketch else None
        self.input_norm_12 = norm_1_2(self.A) if cfg.audit_sketch else 0.0
        self.terminated = False

        # Panel state, re-initialized by each _run_panel call.
        self.k0 = 0
        self.t = 0
        self.W = np.zeros((0, 0))
        # Set when the rook walk at a panel's start builds the off-diagonal
        # table; the panel then ends after that step.
        self.table_built = False

    # -- bookkeeping ---------------------------------------------------

    def _swap(self, i: int, j: int) -> None:
        """Relabel positions i and j across every live array."""
        if i == j:
            return
        k = self.k
        sym_swap(self.A[k:, k:], i - k, j - k)
        if k:
            exchange(self.L[i, :k], self.L[j, :k])
        if self.W.size:
            exchange(self.W[i - self.k0], self.W[j - self.k0])
        if self.B is not None:
            exchange(self.B[:, i], self.B[:, j])
        if self.omega is not None:
            exchange(self.omega[:, i], self.omega[:, j])
        self.perm[i], self.perm[j] = self.perm[j], self.perm[i]

    def _form_column(self, j: int) -> np.ndarray:
        """Column j of the active Schur complement (rows k:), panel-corrected."""
        k, t = self.k, self.t
        c = np.concatenate((self.A[j, k:j], self.A[j:, j]))
        if t:
            c -= self.L[k:, self.k0 : self.k0 + t] @ self.W[j - self.k0, :t]
            self.counters.mults += t * c.size
            self.counters.adds += t * c.size
        return c

    def _diag_entry(self, j: int) -> float:
        t = self.t
        val = float(self.A[j, j])
        if t:
            val -= float(self.L[j, self.k0 : self.k0 + t] @ self.W[j - self.k0, :t])
            self.counters.mults += t
            self.counters.adds += t
        return val

    def _apply_trailing(self) -> None:
        """Push the panel's delayed updates into the trailing lower triangle."""
        k, k0, t, n = self.k, self.k0, self.t, self.n
        m = n - k
        if t == 0 or m == 0:
            return
        panel = slice(k0, k0 + t)
        # A 1-column strip would go to gemv, which rounds differently from
        # gemm; the last strip absorbs a 1-column remainder.
        cuts = (list(range(k, n - 1, _STRIP)) or [k]) + [n]
        for c0, c1 in zip(cuts, cuts[1:]):
            self.A[c0:, c0:c1] -= self.L[c0:, panel] @ self.W[c0 - k0 : c1 - k0, :t].T
        self.counters.mults += t * (m * (m + 1)) // 2
        self.counters.adds += t * (m * (m + 1)) // 2

    def _terminate_deficient(self) -> None:
        for j in range(self.k, self.n):
            self.blocks.append(np.zeros((1, 1)))
            self.pattern[j] = PAT_DEFICIENT
        self.terminated = True

    # -- guarded mode ----------------------------------------------------

    def _robust_trip(self, tsel: float) -> bool:
        return self.robust_armed and tsel < self.threshold * self.beta

    def _robust_recompute(self) -> str:
        """Fresh projection of the current Schur complement; "stop" or "go".

        Only called with an empty panel, so the stored trailing block is the
        true Schur complement.  Each recomputation relaxes the threshold
        exponent before re-testing.
        """
        k, m = self.k, self.n - self.k
        omega = self.rng.standard_normal((self.p, m))
        self.B[:, k:] = omega @ self._active_block()
        if self.omega is not None:
            self.omega[:, k:] = omega
        self.recompute_count += 1
        self.delta += 1.0 / self.cfg.robust_r
        self.threshold = _EPS**self.delta
        tsel = float(column_norms(self.B, from_col=k).max())
        if tsel < self.threshold * self.beta:
            return "stop"
        return "go"

    # -- pivot selection ---------------------------------------------------

    def _long_walk(self) -> OffDiagTable | None:
        """Off-diagonal table for a long rook walk, or None inside a panel.

        With an empty panel the stored lower triangle of the active block is
        the Schur complement itself, so the table is exact; inside a panel
        it is not, and the step defers.
        """
        if self.t:
            return None
        self.table_built = True
        return _offdiag_table(self.A[self.k :, self.k :])

    def _decide(self) -> tuple[PivotDecision, np.ndarray]:
        """Pivot decision at step k, and the column k it was read from."""
        k, n = self.k, self.n
        c_k = self._form_column(k)
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
            ), c_k
        if self.strategy is Strategy.BKPP:
            return _bkpp_from_data(
                a_kk=a_kk,
                sub=sub,
                column_at=self._form_column,
                k=k,
                alpha=self.alpha,
                counters=self.counters,
            ), c_k
        return _bbk_from_data(
            a_kk=a_kk,
            sub=sub,
            column_at=self._form_column,
            k=k,
            n=n,
            alpha=self.alpha,
            counters=self.counters,
            long_walk=self._long_walk,
            hop_limit=_ROOK_HOPS,
        ), c_k

    # -- elimination -----------------------------------------------------

    def _eliminate(self, decision: PivotDecision, c0: np.ndarray | None) -> None:
        """Eliminate the pivot block at k; ``c0`` is column k if still current."""
        k, n = self.k, self.n
        s = decision.s
        if c0 is None:
            c0 = self._form_column(k)
        elif self.t:
            # The cost model charges the pivot column's formation at
            # elimination whether or not the search's copy is reused.
            self.counters.mults += self.t * c0.size
            self.counters.adds += self.t * c0.size
        c1 = self._form_column(k + 1) if s == 2 else None
        lcols, dblock = _block_multipliers(c0, c1, k, self.alpha)
        self.L[k + s :, k : k + s] = lcols
        if lcols.size:
            self.max_multiplier = max(self.max_multiplier, float(np.abs(lcols).max()))
        w_rows = slice(k - self.k0, None)
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
        if self.B is not None and self.q_eff == 1 and w > 0:
            self.B[:, k + s :] -= self.B[:, k : k + s] @ lcols.T
            self.counters.mults += s * self.p * w
            self.counters.adds += s * self.p * w

    # -- diagnostics -----------------------------------------------------

    def _active_block(self) -> np.ndarray:
        """Full symmetric copy of the active block, mirrored from its lower triangle."""
        return mirror_lower(self.A[self.k :, self.k :].copy())

    def _snapshot(self) -> None:
        sub = self._active_block()
        self.snapshots.append((norm_1_inf(sub), float(column_norms(sub).max())))

    def _record_drift(self) -> None:
        k = self.k
        if k >= self.n:
            return
        exact = self.omega[:, k:] @ self._active_block()
        err = norm_1_2(self.B[:, k:] - exact)
        denom = self.input_norm_12
        self.drift.append(err / denom if denom else err)

    # -- main loop -------------------------------------------------------

    def run(self) -> Factorization:
        n = self.n
        if self.robust_armed and self.beta == 0.0:
            self._terminate_deficient()
        while self.k < n and not self.terminated:
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
            snapshots=self.snapshots,
            sketch_drift=self.drift,
            recompute_count=self.recompute_count,
        )
        if self.snapshots:
            stats.rho_elem, stats.rho_col = growth_from_snapshots(self.snapshots)
            stats.L_norm1 = norm_1(self.L)
            stats.Linv_norm1 = linv_norm1(self.L)
        return Factorization(
            perm=self.perm,
            L=self.L,
            D=d,
            pattern=self.pattern,
            stats=stats,
        )

    def _run_panel(self) -> None:
        n = self.n
        self.k0 = self.k
        width = min(self.b_eff, n - self.k0)
        self.t = 0
        self.table_built = False
        self.W = np.zeros((n - self.k0, min(width + 1, n - self.k0)))
        if self.B is not None and self.q_eff > 1:
            if self._panel_preselect(width) == "stop":
                self.W = np.zeros((0, 0))
                return
        while self.k < n and self.t < width:
            # While walks run long, each panel is this one step: the next
            # walk then starts again from the exact Schur complement.
            if self._step(width) != "ok" or self.table_built:
                break
        self._apply_trailing()
        if self.B is not None and self.q_eff > 1 and self.t > 0 and self.k < n:
            # One correction per panel: B(:,trail) -= B(:,panel) Lpp^-T Ltp^T.
            k0, k = self.k0, self.k
            ltp = self.L[k:, k0:k]
            z = solve_triangular(
                self.L[k0:k, k0:k], ltp.T, lower=True, unit_diagonal=True, trans="T"
            )
            self.B[:, k:] -= self.B[:, k0:k] @ z
            w = n - k
            t = k - k0
            self.counters.mults += t * self.p * w + (t * (t - 1) // 2) * w
            self.counters.adds += t * self.p * w + (t * (t - 1) // 2) * w
        if self.drift is not None and self.t > 0:
            self._record_drift()
        self.W = np.zeros((0, 0))

    def _panel_preselect(self, width: int) -> str:
        """Batch column selection for q=b panels; may trip the guard."""
        k, n = self.k, self.n
        m = n - k
        if m <= 1:
            return "go"
        norms = column_norms(self.B, from_col=k)
        self.counters.comps += m - 1
        self.counters.mults += self.p * (m - 1)
        self.counters.adds += self.p * (m - 1)
        if self._robust_trip(float(norms.max())):
            if self._robust_recompute() == "stop":
                self._terminate_deficient()
                return "stop"
        qn = min(self.q_eff, width, m, self.p)
        sel = partial_qrcp(self.B[:, k:], qn)
        # Replay the chosen order as symmetric swaps.  partial_qrcp reports
        # pre-call column positions, so track where each original now lives.
        slot_of = np.arange(m)
        orig_at = np.arange(m)
        for j, orig in enumerate(sel):
            x = int(slot_of[orig])
            if x != j:
                self._swap(k + j, k + x)
                other = int(orig_at[j])
                orig_at[j], orig_at[x] = orig, other
                slot_of[orig], slot_of[other] = j, x
            self.counters.comps += m - 1 - j
            self.counters.mults += 2 * self.p * (m - j)
            self.counters.adds += 2 * self.p * (m - j)
        return "go"

    def _step(self, width: int) -> str:
        k, n, t = self.k, self.n, self.t
        m = n - k
        if self.snapshots is not None:
            self._snapshot()
        if self.B is not None and self.q_eff == 1 and m > 1:
            norms = column_norms(self.B, from_col=k)
            self.counters.comps += m - 1
            self.counters.mults += self.p * (m - 1)
            self.counters.adds += self.p * (m - 1)
            jloc = int(norms.argmax())
            if self._robust_trip(float(norms[jloc])):
                if t > 0:
                    return "defer"  # flush the panel, then retest at t == 0
                if self._robust_recompute() == "stop":
                    self._terminate_deficient()
                    return "stop"
                jloc = int(np.argmax(column_norms(self.B, from_col=k)))
            self._swap(k, k + jloc)
        comps = self.counters.comps
        decision, c_k = self._decide()
        if decision.kind is PivotKind.DEFER:
            # The walk outgrew its hop limit inside the panel.  Its rerun at
            # the next panel's start is charged the whole search; the panel
            # corrections already formed stay charged.
            self.counters.comps = comps
            return "defer"
        if decision.s == 2 and t > 0 and t + 2 > width:
            return "defer"  # 2x2 would overflow the panel; restart fresh
        # Column k as the search formed it stays valid unless a swap follows.
        if decision.kind is PivotKind.ONE_BY_ONE_SWAP_R:
            self._swap(k, decision.r)
            c_k = None
        elif decision.kind is PivotKind.TWO_BY_TWO:
            if decision.p is not None:
                self._swap(k, decision.p)
                c_k = None
            if decision.r != k + 1:
                self._swap(k + 1, decision.r)
                c_k = None
        self._eliminate(decision, c_k)
        self.k += decision.s
        self.t += decision.s
        return "ok"


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


def factor_robust(a: np.ndarray, cfg: FactorConfig | None = None, **overrides) -> Factorization:
    """Like :func:`factor` with the sketch-collapse guard always armed."""
    if cfg is not None and overrides:
        raise ValueError("pass either cfg or keyword overrides, not both")
    if cfg is None:
        cfg = FactorConfig(**overrides)
    if cfg.strategy is not Strategy.RCP:
        raise ValueError("the guarded mode requires the rcp strategy")
    if cfg.robust_r < 1:
        raise ValueError("factor_robust needs robust_r >= 1")
    return _Engine(a, cfg).run()


def reconstruct(f: Factorization) -> np.ndarray:
    """Assemble ``L @ D @ L.T`` (equals the permuted input up to rounding)."""
    return f.L @ f.D.to_dense() @ f.L.T
