"""Benchmark grid over strategies and matrix families, with a small CLI.

``run`` sweeps the full grid strategies x families x sizes x p x trials.
Each cell builds its matrix, draws a reference solution ``x_true`` with
entries uniform on (-1, 1), forms ``b = A @ x_true``, then times
factorization-plus-solve (median of ``reps`` >= 3 repetitions of the same
seeded computation) and records growth, backward error, triangle norms, and
operation counts.  Failures are caught per cell and written to the ``error``
column; the run continues.

Seeding is positional, not sequential: every cell derives its generator from
the configured base seed plus the cell coordinates, so reordering or
subsetting the grid never changes any cell's numbers.  The matrix (and
``x_true``) depend only on family, size, and trial -- all strategies and
sketch sizes in one cell row see the same system.  The ``p`` axis only
affects the randomized strategy; other strategies still run once per ``p``
value so the grid stays rectangular.

The CSV layout is fixed (see ``CSV_COLUMNS``); floats are written with
``repr`` (shortest round trip), missing values as empty fields, NaN as
``nan``.  Re-running a config reproduces the file byte for byte except the
``wall_time_ns`` column.

CLI::

    bench run   --config grid.cfg
    bench gen   --family type6 --n 300 --out m.mtx [--seed S] [--epsilon E] [--n2 K]
    bench solve --matrix m.mtx --strategy rcp [--p 5] [--seed S] [--b 64]

Config files are plain ``key = value`` lines (``#`` comments); list values
are comma separated.  Relative output paths are resolved against
``$RANDLDL_OUT_DIR`` when that variable is set.
"""

from __future__ import annotations

import argparse
import csv
import os
import statistics
import sys
import time
import zlib
from dataclasses import dataclass, field, fields

import numpy as np

from .factor import FactorConfig, GrowthTracking, Strategy, factor
from .gallery import FAMILIES, MatrixSpec, generate, load_matrix_market, save_matrix_market
from .metrics import backward_error, linv_norm1, norm_1
from .solve import solve

__all__ = [
    "BenchConfig",
    "BenchRecord",
    "CSV_COLUMNS",
    "run",
    "emit_csv",
    "parse_config",
    "main",
]

CSV_COLUMNS = [
    "strategy",
    "family",
    "n",
    "p",
    "trial",
    "rho_cheap",
    "rho_elem",
    "err",
    "L_norm1",
    "Linv_norm1",
    "comps",
    "mults",
    "wall_time_ns",
    "recompute_count",
    "error",
]

_STRATEGIES = tuple(s.value for s in Strategy)


@dataclass
class BenchConfig:
    """Grid description for one benchmark run."""

    strategies: list[str]
    families: list[str]
    sizes: list[int]
    trials: int = 1
    p_values: list[int] = field(default_factory=lambda: [5])
    seed: int = 0
    out: str = "bench.csv"
    track_growth: str = "cheap"
    reps: int = 3
    b: int = 64
    q: int = 1
    robust_r: int = 1

    def __post_init__(self) -> None:
        if not self.strategies or not self.families or not self.sizes:
            raise ValueError("strategies, families, and sizes must all be non-empty")
        for s in self.strategies:
            if s not in _STRATEGIES:
                raise ValueError(f"unknown strategy {s!r}; expected one of {_STRATEGIES}")
        for fam in self.families:
            if fam not in FAMILIES and not fam.startswith("file:"):
                raise ValueError(
                    f"unknown family {fam!r}; expected a gallery family or 'file:PATH'"
                )
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if any(p < 1 for p in self.p_values):
            raise ValueError("p values must be >= 1")
        if self.reps < 3:
            raise ValueError("reps must be >= 3")
        GrowthTracking(self.track_growth)


@dataclass
class BenchRecord:
    """One grid cell's results; None fields become empty CSV cells."""

    strategy: str
    family: str
    n: int
    p: int
    trial: int
    rho_cheap: float | None = None
    rho_elem: float | None = None
    err: float | None = None
    L_norm1: float | None = None
    Linv_norm1: float | None = None
    comps: int | None = None
    mults: int | None = None
    wall_time_ns: int | None = None
    recompute_count: int | None = None
    error: str | None = None


def _tag(text: str) -> int:
    return zlib.crc32(text.encode("utf-8"))


def _matrix_seed(base: int, family: str, n: int, trial: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([base, _tag(family), n, trial])


def _cell_seed(base: int, strategy: str, family: str, n: int, p: int, trial: int) -> int:
    ss = np.random.SeedSequence([base, _tag(strategy), _tag(family), n, p, trial, 1])
    return int(ss.generate_state(1)[0])


def _build_system(cfg: BenchConfig, family: str, n: int, trial: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    ss = _matrix_seed(cfg.seed, family, n, trial)
    mat_seed, rhs_seed = (int(s.generate_state(1)[0]) for s in ss.spawn(2))
    if family.startswith("file:"):
        a = load_matrix_market(family[len("file:") :])
    else:
        a = generate(MatrixSpec(family=family, n=n, seed=mat_seed))
    gen = np.random.Generator(np.random.Philox(rhs_seed))
    x_true = gen.uniform(-1.0, 1.0, a.shape[0])
    return a, x_true, a @ x_true


def _run_cell(cfg: BenchConfig, strategy: str, family: str, n: int, p: int, trial: int) -> BenchRecord:
    rec = BenchRecord(strategy=strategy, family=family, n=n, p=p, trial=trial)
    try:
        a, _x_true, b = _build_system(cfg, family, n, trial)
        rec.n = a.shape[0]
        fc = FactorConfig(
            strategy=strategy,
            p=p,
            b=cfg.b,
            q=cfg.q,
            seed=_cell_seed(cfg.seed, strategy, family, rec.n, p, trial),
            robust_r=cfg.robust_r,
            track_growth=cfg.track_growth,
        )
        times = []
        f = report = None
        for _ in range(cfg.reps):
            t0 = time.perf_counter_ns()
            f = factor(a, fc)
            report = solve(f, b)
            times.append(time.perf_counter_ns() - t0)
        rec.wall_time_ns = int(statistics.median(times))
        rec.rho_cheap = f.stats.rho_cheap
        rec.rho_elem = f.stats.rho_elem
        rec.err = backward_error(a, report.x, b)
        rec.L_norm1 = f.stats.L_norm1 if f.stats.L_norm1 is not None else norm_1(f.L)
        rec.Linv_norm1 = (
            f.stats.Linv_norm1 if f.stats.Linv_norm1 is not None else linv_norm1(f.L)
        )
        rec.comps = f.stats.counters.comps
        rec.mults = f.stats.counters.mults
        rec.recompute_count = f.stats.recompute_count
    except Exception as exc:  # per-cell isolation: record and move on
        rec.error = f"{type(exc).__name__}: {exc}"
    return rec


def run(cfg: BenchConfig) -> list[BenchRecord]:
    """Execute the grid and write the CSV; returns all records."""
    records = []
    for family in cfg.families:
        sizes = cfg.sizes if not family.startswith("file:") else cfg.sizes[:1]
        for n in sizes:
            for strategy in cfg.strategies:
                for p in cfg.p_values:
                    for trial in range(cfg.trials):
                        records.append(_run_cell(cfg, strategy, family, n, p, trial))
    emit_csv(records, resolve_out_path(cfg.out))
    return records


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit_csv(records: list[BenchRecord], path: str) -> None:
    """Write records in the fixed ``CSV_COLUMNS`` layout (RFC 4180)."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    names = [f.name for f in fields(BenchRecord)]
    assert names == CSV_COLUMNS
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for rec in records:
            writer.writerow([_format_cell(getattr(rec, name)) for name in names])


def resolve_out_path(path: str) -> str:
    """Resolve a relative output path against ``$RANDLDL_OUT_DIR`` if set."""
    base = os.environ.get("RANDLDL_OUT_DIR")
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


_LIST_KEYS = {"strategies", "families", "p"}
_INT_KEYS = {"trials", "seed", "reps", "b", "q", "robust_r"}


def parse_config(text: str) -> BenchConfig:
    """Parse ``key = value`` benchmark configuration text."""
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = (tok.strip() for tok in line.partition("="))
        items = [tok.strip() for tok in val.split(",") if tok.strip()]
        if key in _LIST_KEYS:
            values["p_values" if key == "p" else key] = items
        elif key == "sizes":
            values[key] = [int(tok) for tok in items]
        elif key in _INT_KEYS:
            values[key] = int(val)
        elif key in ("out", "track_growth"):
            values[key] = val
        else:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
    if "p_values" in values:
        values["p_values"] = [int(tok) for tok in values["p_values"]]
    missing = {"strategies", "families", "sizes"} - values.keys()
    if missing:
        raise ValueError(f"config is missing required keys: {sorted(missing)}")
    return BenchConfig(**values)


def _cmd_run(args: argparse.Namespace) -> int:
    with open(args.config, encoding="utf-8") as fh:
        cfg = parse_config(fh.read())
    records = run(cfg)
    failed = [rec for rec in records if rec.error is not None]
    print(f"wrote {len(records)} records to {resolve_out_path(cfg.out)}")
    for rec in failed:
        print(
            f"cell failed: {rec.strategy}/{rec.family}/n={rec.n}/p={rec.p}/trial={rec.trial}: {rec.error}",
            file=sys.stderr,
        )
    return 1 if failed else 0


def _cmd_gen(args: argparse.Namespace) -> int:
    spec = MatrixSpec(
        family=args.family, n=args.n, seed=args.seed, epsilon=args.epsilon, n2=args.n2
    )
    a = generate(spec)
    out = resolve_out_path(args.out)
    parent = os.path.dirname(out)
    if parent:
        os.makedirs(parent, exist_ok=True)
    save_matrix_market(a, out)
    print(f"wrote {args.family} (n={a.shape[0]}) to {out}")
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    a = load_matrix_market(args.matrix)
    n = a.shape[0]
    gen = np.random.Generator(np.random.Philox(args.seed))
    x_true = gen.uniform(-1.0, 1.0, n)
    b = a @ x_true
    fc = FactorConfig(strategy=args.strategy, p=args.p, b=args.b, seed=args.seed)
    t0 = time.perf_counter_ns()
    f = factor(a, fc)
    report = solve(f, b, a=a)
    elapsed = time.perf_counter_ns() - t0
    print(f"n = {n}")
    print(f"strategy = {args.strategy}")
    print(f"rho_cheap = {f.stats.rho_cheap!r}")
    print(f"err = {report.backward_error!r}")
    print(f"singular = {report.singular}")
    print(f"comps = {f.stats.counters.comps}")
    print(f"mults = {f.stats.counters.mults}")
    print(f"wall_time_ns = {elapsed}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="bench", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a benchmark grid from a config file")
    p_run.add_argument("--config", required=True, help="path to a key = value config file")
    p_run.set_defaults(func=_cmd_run)

    p_gen = sub.add_parser("gen", help="generate a gallery matrix as a Matrix Market file")
    p_gen.add_argument("--family", required=True)
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--epsilon", type=float, default=1e-8)
    p_gen.add_argument("--n2", type=int, default=None)
    p_gen.set_defaults(func=_cmd_gen)

    p_solve = sub.add_parser("solve", help="factor and solve one Matrix Market system")
    p_solve.add_argument("--matrix", required=True)
    p_solve.add_argument("--strategy", default="rcp", choices=list(_STRATEGIES))
    p_solve.add_argument("--p", type=int, default=5)
    p_solve.add_argument("--seed", type=int, default=0)
    p_solve.add_argument("--b", type=int, default=64)
    p_solve.set_defaults(func=_cmd_solve)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
