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
  can touch many columns per step in the worst case.

Elimination is organized in panels of width ``b``.  Inside a panel only the
current pivot columns are updated (each formed from the frozen trailing
matrix plus a correction against the panel's earlier columns); the trailing
Schur complement is rebuilt once per panel with a matrix-matrix product.
``b=1`` reproduces the classic eager per-step update.  With ``q=1`` the
sketch selects one column per step; with ``q=b`` a partial QR with column
pivoting on the sketch proposes the whole panel's candidate columns up front
and the sketch is corrected once per panel.

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
    identity_permutation,
    mirror_lower,
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
    PivotDecision,
    PivotKind,
    _bbk_from_data,
    _bkpp_from_data,
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

# Pattern labels, one per index of the factorization.
PAT_SINGLE = 0
PAT_PAIR_START = 1
PAT_PAIR_END = 2
PAT_DEFICIENT = 3


class NumericalError(RuntimeError):
    """Raised when the factorization meets a non-finite or impossible value."""


class Strategy(str, Enum):
    RCP = "rcp"
    BKPP = "bkpp"
    BBK = "bbk"


class GrowthTracking(str, Enum):
    CHEAP = "cheap"
    FULL = "full"


@dataclass
class FactorConfig:
    """Knobs for :func:`factor`.

    ``q`` must be 1 (one sketch pivot per step) or equal to ``b`` (one batch
    of sketch pivots per panel), and the sketch size ``p`` must be at least
    ``q``.  ``robust_r`` is the recompute budget of the guarded mode; 0
    disables the guard entirely.  ``track_growth="full"`` and
    ``audit_sketch`` both force eager (width-1) panels so that every Schur
    complement is materialized for inspection; they change the asymptotic
    cost and are meant for experiments, not production solves.
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
        self.strategy = Strategy(self.strategy)
        self.track_growth = GrowthTracking(self.track_growth)
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


@dataclass
class BlockDiag:
    """Block diagonal factor: an ordered list of (1,1) and (2,2) arrays."""

    blocks: list[np.ndarray]

    @property
    def dim(self) -> int:
        return sum(b.shape[0] for b in self.blocks)

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
        return max((float(np.abs(b).max()) for b in self.blocks), default=0.0)


@dataclass
class Factorization:
    """Result of :func:`factor`: ``A[perm][:, perm] == L @ D @ L.T``.

    ``pattern[i]`` labels index i as a single pivot, the start or end of a
    2x2 pivot pair, or part of the numerically zero tail of a rank-deficient
    input.
    """

    perm: np.ndarray
    L: np.ndarray
    D: BlockDiag
    pattern: np.ndarray
    stats: GrowthStats

    @property
    def n(self) -> int:
        return self.perm.size

    @property
    def deficient_from(self) -> int | None:
        """First index of the numerically zero tail, or None if full rank."""
        hits = np.nonzero(self.pattern == PAT_DEFICIENT)[0]
        return int(hits[0]) if hits.size else None


def _block_multipliers(c0: np.ndarray, c1: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """Multipliers and diagonal block from updated pivot column(s).

    ``c0`` (and ``c1`` for a 2x2 block) hold the pivot columns of the active
    Schur complement starting at the pivot row.  The 2x2 case solves against
    the adjugate, and the stored block is symmetrized from the lower entry.
    """
    if c1 is None:
        d = float(c0[0])
        sub = c0[1:]
        if sub.size and float(np.abs(sub).max()) != 0.0:
            if d == 0.0:
                raise NumericalError("zero 1x1 pivot under a nonzero column")
            lcols = (sub / d)[:, None]
        else:
            lcols = np.zeros((sub.size, 1))
        return lcols, np.array([[d]])
    d11, d21, d22 = float(c0[0]), float(c0[1]), float(c1[1])
    det = d11 * d22 - d21 * d21
    if det == 0.0:
        raise NumericalError("singular 2x2 pivot block")
    a1, a2 = c0[2:], c1[2:]
    l1 = (a1 * d22 - d21 * a2) / det
    l2 = (d11 * a2 - d21 * a1) / det
    return np.column_stack([l1, l2]), np.array([[d11, d21], [d21, d22]])


class _Engine:
    """One factorization run; see the module docstring for the plan."""

    def __init__(self, a: np.ndarray, cfg: FactorConfig):
        a = require_symmetric(a, "A")
        if not np.isfinite(a).all():
            raise ValueError("input matrix contains NaN or Inf")
        self.cfg = cfg
        self.n = a.shape[0]
        n = self.n
        self.A = np.array(a, dtype=np.float64, copy=True)
        self.input_norm_1inf = norm_1_inf(self.A)
        self.L = np.eye(n)
        self.perm = identity_permutation(n)
        self.pattern = np.zeros(n, dtype=np.int8)
        self.blocks: list[np.ndarray] = []
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

    # -- bookkeeping ---------------------------------------------------

    def _swap(self, i: int, j: int) -> None:
        """Relabel positions i and j across every live array."""
        if i == j:
            return
        sym_swap(self.A, i, j)
        k = self.k
        if k:
            self.L[[i, j], :k] = self.L[[j, i], :k]
        if self.W.size:
            wi, wj = i - self.k0, j - self.k0
            self.W[[wi, wj], :] = self.W[[wj, wi], :]
        if self.B is not None:
            self.B[:, [i, j]] = self.B[:, [j, i]]
        if self.omega is not None:
            self.omega[:, [i, j]] = self.omega[:, [j, i]]
        self.perm[[i, j]] = self.perm[[j, i]]

    def _form_column(self, j: int) -> np.ndarray:
        """Column j of the active Schur complement (rows k:), panel-corrected."""
        k, t = self.k, self.t
        c = self.A[k:, j].copy()
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
        """Push the panel's delayed updates into the stored trailing block."""
        k, t = self.k, self.t
        m = self.n - k
        if t == 0 or m == 0:
            return
        block = self.A[k:, k:]
        block -= self.L[k:, self.k0 : self.k0 + t] @ self.W[k - self.k0 :, :t].T
        mirror_lower(block)
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
        self.B[:, k:] = omega @ self.A[k:, k:]
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

    def _decide(self) -> PivotDecision:
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
            )
        if self.strategy is Strategy.BKPP:
            return _bkpp_from_data(
                a_kk=a_kk,
                sub=sub,
                column_at=self._form_column,
                k=k,
                alpha=self.alpha,
                counters=self.counters,
            )
        return _bbk_from_data(
            a_kk=a_kk,
            sub=sub,
            column_at=self._form_column,
            k=k,
            n=n,
            alpha=self.alpha,
            counters=self.counters,
        )

    # -- elimination -----------------------------------------------------

    def _eliminate(self, decision: PivotDecision) -> None:
        k, n = self.k, self.n
        s = decision.s
        c0 = self._form_column(k)
        c1 = self._form_column(k + 1) if s == 2 else None
        lcols, dblock = _block_multipliers(c0, c1)
        if not np.isfinite(dblock).all() or not np.isfinite(lcols).all():
            raise NumericalError(f"non-finite pivot data at step {k}")
        if s == 2:
            # Every strategy's 2x2 acceptance implies |det| > (1-alpha^2) d21^2;
            # anything below that (modulo rounding) marks a broken invariant.
            d21 = abs(float(dblock[1, 0]))
            det = float(dblock[0, 0]) * float(dblock[1, 1]) - d21 * d21
            alpha = self.alpha
            if abs(det) < (1.0 - alpha * alpha) * d21 * d21 * (1.0 - 1e-12):
                raise NumericalError(
                    f"2x2 block at step {k} violates its determinant bound"
                )
        self.L[k + s :, k : k + s] = lcols
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

    def _snapshot(self) -> None:
        sub = self.A[self.k :, self.k :]
        self.snapshots.append((norm_1_inf(sub), float(column_norms(sub).max())))

    def _record_drift(self) -> None:
        k = self.k
        if k >= self.n:
            return
        exact = self.omega[:, k:] @ self.A[k:, k:]
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
        dmax = BlockDiag(self.blocks).max_abs()
        if self.input_norm_1inf == 0.0:
            rho_cheap = 1.0 if dmax == 0.0 else math.inf
        else:
            rho_cheap = dmax / self.input_norm_1inf
        max_mult = float(np.abs(np.tril(self.L, -1)).max()) if n > 1 else 0.0
        stats = GrowthStats(
            rho_cheap=rho_cheap,
            max_multiplier=max_mult,
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
            D=BlockDiag(self.blocks),
            pattern=self.pattern,
            stats=stats,
        )

    def _run_panel(self) -> None:
        n = self.n
        self.k0 = self.k
        width = min(self.b_eff, n - self.k0)
        self.t = 0
        self.W = np.zeros((n - self.k0, min(width + 1, n - self.k0)))
        if self.B is not None and self.q_eff > 1:
            if self._panel_preselect(width) == "stop":
                self.W = np.zeros((0, 0))
                return
        while self.k < n and self.t < width:
            if self._step(width) != "ok":
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
            jloc = int(np.argmax(norms))
            if self._robust_trip(float(norms[jloc])):
                if t > 0:
                    return "defer"  # flush the panel, then retest at t == 0
                if self._robust_recompute() == "stop":
                    self._terminate_deficient()
                    return "stop"
                jloc = int(np.argmax(column_norms(self.B, from_col=k)))
            self._swap(k, k + jloc)
        decision = self._decide()
        if decision.s == 2 and t > 0 and t + 2 > width:
            return "defer"  # 2x2 would overflow the panel; restart fresh
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
