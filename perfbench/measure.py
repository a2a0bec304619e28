"""Workloads, timed cycles and correctness checks of the randldl benchmark.

Importing this module imports numpy, scipy.linalg and randldl, so the entry
point times the import as part of ``setup_s``.  A run is a closed loop of
*cycles* on one matrix drawn from the seed.  A cycle is: the LAPACK reference
calls, one ``factor``, a burst of single-RHS ``solve`` calls and a number of
64-RHS ``solve_many`` calls.  Every call is timed on its own and every output
is checked; the loop starts cycles until ``--seconds`` have passed and at
least the workload's minimum number of cycles has run.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import platform
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy
import scipy.linalg as sla

import randldl
from randldl import MatrixSpec, factor, generate, reconstruct, solve, solve_many
from spans import Tracer

# A stable LDL^T solve of these unit-scale inputs lands near 1e-16; a miss of
# this limit is a wrong answer, not noise.
BERR_LIMIT = 1e-12
# max|A[perm][:, perm] - L D L^T| / max|A|, checked once per run.
RECON_LIMIT = 1e-10
BLOCK_RHS = 64
WARMUP_N = 128
# Set-up samples per run, taken at even steps through it; setup_s is their
# median.  The host's speed shifts from one ten-second stretch to the next, so
# samples taken together at the start all see the same stretch.
SETUP_REPEATS = 5


@dataclass(frozen=True)
class Workload:
    family: str
    n: int
    config: dict  # FactorConfig overrides
    solves: int  # single-RHS solves per cycle
    blocks: int  # solve_many calls per cycle
    min_cycles: int
    ref_reps: int  # ldl and lu_factor calls per cycle; the cycle keeps their median


WORKLOADS = {
    "dense-rcp": Workload("type6", 2048, {}, solves=20, blocks=2, min_cycles=5, ref_reps=1),
    "dense-panel": Workload("type6", 2048, {"p": 64, "b": 64, "q": 64}, 20, 2, 5, 1),
    "adversarial": Workload("type2", 256, {"strategy": "bbk"}, solves=20, blocks=2, min_cycles=5, ref_reps=3),
    "solve-many": Workload("type6", 2048, {}, solves=150, blocks=15, min_cycles=4, ref_reps=1),
}

# Metric names, units and directions; the run reports them in this order.
SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
if set(WORKLOADS) != {w["name"] for w in SPEC["workloads"]}:
    raise RuntimeError(f"perfbench: WORKLOADS {sorted(WORKLOADS)} do not match the workloads of BENCHMARK.json")
# End-to-end figures printed on the information line but not gated: on a
# shared 2-core host their spread over seeds exceeds any bound of 25 %.  Raw
# times follow the host's speed, which shifts by about 25 % from one ten-second
# stretch to the next, most in pure-Python code such as the rook walk; the
# paired ldl_ratio, solve_ratio and solve_many_ratio cancel that.  rho_max and
# berr_max depend on the drawn input (rho_max is about 21 or 31 at n = 2048).
UNGATED_UNITS = {
    "solution_s": "s", "factor_s": "s", "factor_gflops": "GFLOP/s", "solve_s": "s",
    "solve_s.p90": "s", "solve_many_s": "s", "rho_max": "1", "berr_max": "1",
}


@dataclass
class Cycle:
    traced: bool
    ldl_s: float = 0.0
    lu_s: float = 0.0
    factor_s: float | None = None
    solution_s: float | None = None
    solve_s: list[float] = field(default_factory=list)
    block_s: list[float] = field(default_factory=list)
    solve_ratio: list[float] = field(default_factory=list)
    block_ratio: list[float] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)


def warm_up(wl: Workload) -> None:
    """Run every timed call once on a small matrix of the workload's family."""
    a = generate(MatrixSpec(wl.family, WARMUP_N, seed=0))
    f = factor(a, **wl.config)
    solve(f, np.ones(WARMUP_N))
    solve_many(f, np.ones((WARMUP_N, BLOCK_RHS)))
    sla.ldl(a)
    sla.lu_factor(a)


class Run:
    """One benchmark run: set-up, cycles, checks and the reported metrics."""

    def __init__(self, wl: Workload, seed: int, trace: bool, import_again):
        self.wl = wl
        self.seed = seed
        self.trace = trace
        self.import_again = import_again  # () -> seconds a fresh interpreter takes to import
        self.setup_s: list[float] = []
        self.generate_s: list[float] = []
        self.tracer = Tracer() if trace else None
        self.attempted = 0
        self.failed = 0
        self.berr_max = 0.0
        self.rho_max = 0.0
        self.digest: str | None = None
        self.recon_residual: float | None = None
        self.cycles: list[Cycle] = []
        self.last = None

    def fail(self, what: str, exc: BaseException | None = None) -> None:
        self.failed += 1
        print(f"perfbench: FAILED {what}", file=sys.stderr)
        if exc is not None:
            traceback.print_exception(exc, file=sys.stderr)

    # -- set-up ------------------------------------------------------------

    def set_up(self, import_s: float) -> None:
        """Generate the input and warm up: the first set-up sample."""
        wl = self.wl
        self.a = a = self.set_up_once(import_s)
        self.a_inf = float(np.abs(a).sum(axis=1).max())
        rng = np.random.default_rng(self.seed)
        self.rhs = rng.standard_normal((wl.n, wl.solves))
        self.block = rng.standard_normal((wl.n, BLOCK_RHS))

    def set_up_once(self, import_s: float) -> np.ndarray:
        """One set-up sample: ``import_s`` plus a timed generate + warm-up."""
        t0 = perf_counter()
        a = generate(MatrixSpec(self.wl.family, self.wl.n, seed=self.seed))
        t1 = perf_counter()
        warm_up(self.wl)
        self.generate_s.append(t1 - t0)
        self.setup_s.append(import_s + perf_counter() - t0)
        return a

    # -- cycles ------------------------------------------------------------

    def run(self, seconds: float) -> None:
        """Run cycles until ``seconds`` are used and the minimum count is met.

        A cycle is started only if it is expected to end within ``seconds``,
        judged by the median cycle so far, so a run overshoots by little.
        The remaining set-up samples are taken between cycles, one per
        ``seconds / SETUP_REPEATS``; any still missing at the end follow it.
        """
        min_cycles = max(self.wl.min_cycles, 4) if self.trace else self.wl.min_cycles
        start = perf_counter()
        lengths: list[float] = []
        while len(lengths) < min_cycles or perf_counter() - start + statistics.median(lengths) <= seconds:
            if len(self.setup_s) < SETUP_REPEATS and perf_counter() - start >= len(self.setup_s) * seconds / SETUP_REPEATS:
                self.set_up_once(self.import_again())
            t0 = perf_counter()
            # A traced run alternates untraced and traced cycles, so the ratio
            # of their factor times is the tracing overhead.
            self.cycles.append(self.cycle(traced=self.trace and len(lengths) % 2 == 1))
            lengths.append(perf_counter() - t0)
        # The next cycle's reference closes each cycle's bracket; this one
        # closes the last.
        self.closing = Cycle(traced=False)
        self.reference(self.closing)
        while len(self.setup_s) < SETUP_REPEATS:
            self.set_up_once(self.import_again())
        self.check_reconstruct()

    def reference(self, c: Cycle) -> None:
        ldl, lu = [], []
        for _ in range(self.wl.ref_reps):
            t0 = perf_counter()
            sla.ldl(self.a)
            t1 = perf_counter()
            self.lu = sla.lu_factor(self.a)
            ldl.append(t1 - t0)
            lu.append(perf_counter() - t1)
        c.ldl_s, c.lu_s = statistics.median(ldl), statistics.median(lu)

    def call(self, c: Cycle, span: str, fn, *args, **kwargs):
        """Time one randldl call; returns (seconds, result) or None if it raised."""
        self.attempted += 1
        t0 = perf_counter()
        try:
            if c.traced:
                out = self.tracer.span(span, fn, *args, **kwargs)
            else:
                out = fn(*args, **kwargs)
        except Exception as exc:  # a failed call is a result, not a crash
            self.fail(f"{fn.__name__} raised", exc)
            return None
        return perf_counter() - t0, out

    def cycle(self, traced: bool) -> Cycle:
        c = Cycle(traced=traced)
        # The reference opens every cycle, so each factor sits between two
        # reference calls and drift in the machine's speed lands on both
        # sides of ldl_ratio.
        self.reference(c)
        if traced:
            self.tracer.reset()
            with self.tracer.installed():
                f = self.factor_and_solve(c)
        else:
            f = self.factor_and_solve(c)
        if traced and f is not None:
            c.layers = self.layer_values(f)
        return c

    def factor_and_solve(self, c: Cycle):
        wl, a = self.wl, self.a
        got = self.call(c, "factor", factor, a, **wl.config)
        if got is None:
            return None
        c.factor_s, f = got
        if not self.check_factor(f):
            return None
        self.rho_max = max(self.rho_max, float(f.stats.rho_cheap))
        self.last = f

        x = np.full((wl.n, wl.solves), np.nan)
        first_s = None
        for j in range(wl.solves):
            got = self.call(c, "solve", solve, f, self.rhs[:, j])
            if got is not None:
                c.solve_s.append(got[0])
                x[:, j] = got[1].x
                first_s = got[0] if j == 0 else first_s
                # Pair each solve with LAPACK getrs on the same right-hand side,
                # so machine speed changes land on both sides of solve_ratio.
                t0 = perf_counter()
                sla.lu_solve(self.lu, self.rhs[:, j])
                c.solve_ratio.append(got[0] / (perf_counter() - t0))
        errs = self.backward_errors(x, self.rhs)
        for j in np.nonzero(errs > BERR_LIMIT)[0]:  # NaN marks a raised solve, counted already
            self.fail(f"solve {j}: backward error {errs[j]:.3e} > {BERR_LIMIT:.0e}")
        if first_s is not None and errs[0] <= BERR_LIMIT:
            c.solution_s = c.factor_s + first_s

        for _ in range(wl.blocks):
            got = self.call(c, "solve", solve_many, f, self.block)
            if got is not None:
                c.block_s.append(got[0])
                t0 = perf_counter()
                sla.lu_solve(self.lu, self.block)
                c.block_ratio.append(got[0] / (perf_counter() - t0))
                worst = self.backward_errors(got[1], self.block).max()
                if not worst <= BERR_LIMIT:
                    self.fail(f"solve_many: backward error {worst:.3e} > {BERR_LIMIT:.0e}")
        return f

    # -- correctness -------------------------------------------------------

    def check_factor(self, f) -> bool:
        n = self.wl.n
        if not np.array_equal(np.sort(f.perm), np.arange(n)):
            self.fail("factor returned a perm that is not a permutation")
            return False
        digest = hashlib.sha256(
            np.asarray(f.perm, dtype=np.int64).tobytes() + np.asarray(f.pattern, dtype=np.int8).tobytes()
        ).hexdigest()[:16]
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            self.fail(f"perm/pattern digest {digest} differs from the first repeat's {self.digest}")
            return False
        return True

    def backward_errors(self, x: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Per-column ``|Ax - b|_inf / (|A|_inf |x|_inf)``, as ``randldl.metrics.backward_error``."""
        resid = np.abs(self.a @ x - b).max(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            errs = resid / (self.a_inf * np.abs(x).max(axis=0))
        finite = errs[np.isfinite(errs)]
        if finite.size:
            self.berr_max = max(self.berr_max, float(finite.max()))
        return errs

    def check_reconstruct(self) -> None:
        """One reconstruction residual per run, outside every timed region."""
        self.attempted += 1
        f = self.last
        if f is None:
            self.fail("no factorization to reconstruct")
            return
        pa = self.a[np.ix_(f.perm, f.perm)]
        self.recon_residual = float(np.abs(pa - reconstruct(f)).max() / np.abs(self.a).max())
        if not self.recon_residual <= RECON_LIMIT:
            self.fail(f"reconstruction residual {self.recon_residual:.3e} > {RECON_LIMIT:.0e}")

    # -- metrics -----------------------------------------------------------

    def layer_values(self, f) -> dict[str, float]:
        t = self.tracer
        v: dict[str, float] = {"factor.self.s": t.self_s["factor"]}
        for span in ("core.mirror_lower", "core.sym_swap", "core.column_norms",
                     "factor.block_multipliers", "sketch.partial_qrcp"):
            if span in t.wrapped:
                v[f"{span}.s"] = t.self_s[span]
                v[f"{span}.calls"] = t.calls[span]
        for span in ("core.mirror_lower", "core.sym_swap"):
            if span in t.wrapped:
                v[f"{span}.bytes"] = t.bytes[span]
        if "pivot.search" in t.wrapped:
            v["pivot.search.s"] = t.self_s["pivot.search"]
            v["pivot.column_fetch.s"] = t.self_s["pivot.column_fetch"]
            v["pivot.column_fetches"] = t.calls["pivot.column_fetch"]
            v["pivot.calls"] = t.calls["pivot.search"]
            for kind in ("1x1", "1x1_swap", "2x2", "skip"):
                v[f"pivot.decisions.{kind}"] = t.decisions[kind]
        for span, name in (("sketch.correction", "sketch.correction.s"),
                           ("solve.triangular", "solve.triangular.s"),
                           ("solve.block_diag", "solve.block_diag.s")):
            if span in t.wrapped:
                v[name] = t.self_s[span]
        v["solve.calls"] = t.calls["solve"]
        v["sketch.recompute_count"] = f.stats.recompute_count
        v["stats.rho_cheap"] = f.stats.rho_cheap
        for op in ("mults", "adds", "divs", "comps"):
            v[f"metrics.{op}"] = getattr(f.stats.counters, op)
        return v

    def end_to_end(self) -> dict[str, float | None]:
        cycles = self.cycles
        factor_s = [c.factor_s for c in cycles if c.factor_s is not None]
        solves = [s for c in cycles for s in c.solve_s]
        med_factor = _median(factor_s)
        n = self.wl.n
        return {
            "setup_s": statistics.median(self.setup_s),
            "solution_s": _median([c.solution_s for c in cycles if c.solution_s is not None]),
            "factor_s": med_factor,
            "factor_gflops": n**3 / 3 / med_factor / 1e9 if med_factor else None,
            "solve_s": _median(solves),
            # p90 has at least ten samples beyond it: every workload runs >= 100 solves.
            "solve_s.p90": statistics.quantiles(solves, n=10)[-1] if len(solves) >= 100 else None,
            "solve_many_s": _median([t for c in cycles for t in c.block_s]),
            "solve_ratio": _median([r for c in cycles for r in c.solve_ratio]),
            "solve_many_ratio": _median([r for c in cycles for r in c.block_ratio]),
            "ldl_ratio": _median([
                c.factor_s / ((c.ldl_s + after.ldl_s) / 2)
                for c, after in zip(cycles, cycles[1:] + [self.closing])
                if c.factor_s is not None
            ]),
            "rho_max": self.rho_max,
            "berr_max": self.berr_max,
            "ok_frac": (self.attempted - self.failed) / self.attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    def per_layer(self) -> dict[str, float | None]:
        traced = [c for c in self.cycles if c.traced and c.layers]
        untraced = [c.factor_s for c in self.cycles if not c.traced and c.factor_s is not None]
        values = {
            "stats.berr_max": self.berr_max,
            "gallery.generate.s": statistics.median(self.generate_s),
            "ref.ldl.s": _median([c.ldl_s for c in self.cycles]),
            "ref.lu_factor.s": _median([c.lu_s for c in self.cycles]),
        }
        for name in (traced[0].layers if traced else ()):
            values[name] = _median([c.layers[name] for c in traced])
        traced_factor = _median([c.factor_s for c in traced])
        if traced_factor and untraced:
            values["trace.overhead"] = traced_factor / _median(untraced)
        return values

    def samples(self) -> dict[str, int]:
        return {
            "cycles": len(self.cycles),
            "factor": sum(c.factor_s is not None for c in self.cycles),
            "solve": sum(len(c.solve_s) for c in self.cycles),
            "solve_many": sum(len(c.block_s) for c in self.cycles),
        }


def _median(values: list[float]) -> float | None:
    return statistics.median(values) if values else None


def _blas(pkg) -> dict:
    """BLAS name, version and live thread count of numpy's or scipy's OpenBLAS."""
    rec = pkg.show_config(mode="dicts")["Build Dependencies"]["blas"]
    out = {"package": pkg.__name__, "name": rec.get("name"), "version": rec.get("version"), "threads": None}
    libs = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))  # already loaded by the import; same handle
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                out["threads"] = int(fn())
                break
    return out


def environment(nproc: int, n: int) -> dict:
    llc = ctypes.CDLL(None).sysconf(194)  # glibc _SC_LEVEL3_CACHE_SIZE
    return {
        "nproc": nproc,
        "blas": [_blas(np), _blas(scipy)],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "matrix_bytes": 8 * n * n,
        "llc_bytes": llc if llc > 0 else None,
    }


def run(workload: str, seed: int, seconds: float, trace: bool, import_s: float, import_again,
        nproc: int) -> tuple[dict, dict]:
    """Run one workload; returns (information record, result record).

    ``import_s`` is this process's own import time; ``import_again()`` times
    the import in a fresh interpreter for each later set-up sample.
    """
    wl = WORKLOADS[workload]
    r = Run(wl, seed, trace, import_again)
    r.set_up(import_s)
    r.run(seconds)
    values = r.per_layer() if trace else r.end_to_end()
    kind = "per_layer" if trace else "end_to_end"
    gated = {m["name"] for m in SPEC[kind]}
    info = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "samples": r.samples(),
        "digest": r.digest,
        "recon_residual": r.recon_residual,
        "limits": {"berr": BERR_LIMIT, "recon": RECON_LIMIT},
        "absent": sorted(r.tracer.absent) if trace else [],
        "ungated": {name: {"value": values[name], "unit": UNGATED_UNITS[name]}
                    for name in UNGATED_UNITS if name in values and name not in gated},
        "env": environment(nproc, wl.n),
    }
    result = {
        "correct": r.failed == 0,
        "attempted": r.attempted,
        "failed": r.failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in SPEC[kind]
            if m["name"] in values
        },
    }
    return info, result
