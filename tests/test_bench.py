"""Benchmark harness: config parsing, grid runs, CSV output, CLI."""

import csv
import os

import numpy as np
import pytest

from randldl.bench import (
    CSV_COLUMNS,
    BenchConfig,
    _build_system,
    main,
    parse_config,
    resolve_out_path,
    run,
)
from randldl.gallery import MatrixSpec, generate, load_matrix_market, save_matrix_market


def read_csv(path):
    with open(path, newline="", encoding="ascii") as fh:
        return list(csv.DictReader(fh))


def small_config(out, **overrides):
    base = dict(
        strategies=["rcp", "bkpp"],
        families=["type4"],
        sizes=[8],
        trials=2,
        p_values=[3],
        reps=3,
        out=out,
    )
    base.update(overrides)
    return BenchConfig(**base)


# -- configuration -------------------------------------------------------


def test_parse_config_full():
    cfg = parse_config(
        """
        # benchmark grid
        strategies = rcp, bkpp   # sketched and partial
        families = type4, type6
        sizes = 8, 12
        trials = 2
        p = 3, 5
        seed = 42
        out = results.csv
        track_growth = cheap
        reps = 4
        b = 8
        q = 1
        robust_r = 2
        """
    )
    assert cfg.strategies == ["rcp", "bkpp"]
    assert cfg.families == ["type4", "type6"]
    assert cfg.sizes == [8, 12]
    assert cfg.trials == 2
    assert cfg.p_values == [3, 5]
    assert cfg.seed == 42
    assert cfg.out == "results.csv"
    assert (cfg.reps, cfg.b, cfg.q, cfg.robust_r) == (4, 8, 1, 2)


@pytest.mark.parametrize(
    "text,match",
    [
        ("strategies = rcp\nfamilies = type4\nsizes = 8\ncolour = red\n", "unknown key"),
        ("strategies = rcp\nfamilies = type4\n", "missing required"),
        ("strategies rcp\n", "key = value"),
    ],
    ids=["unknown-key", "missing-required", "no-equals"],
)
def test_parse_config_rejects(text, match):
    with pytest.raises(ValueError, match=match):
        parse_config(text)


@pytest.mark.parametrize(
    "overrides",
    [
        {"strategies": ["newton"]},
        {"families": ["type99"]},
        {"trials": 0},
        {"p_values": [0]},
        {"reps": 0},
        {"reps": 2},
        {"track_growth": "sometimes"},
        {"strategies": []},
    ],
    ids=["strategy", "family", "trials", "p", "reps", "reps-below-three", "tracking", "empty"],
)
def test_bench_config_validation(tmp_path, overrides):
    with pytest.raises(ValueError):
        small_config(str(tmp_path / "x.csv"), **overrides)


def test_bench_config_accepts_file_families(tmp_path):
    cfg = small_config(str(tmp_path / "x.csv"), families=["file:/some/path.mtx"])
    assert cfg.families == ["file:/some/path.mtx"]


# -- grid execution --------------------------------------------------------


def test_run_writes_complete_csv(tmp_path):
    out = str(tmp_path / "grid.csv")
    records = run(small_config(out))
    assert len(records) == 4  # 1 family x 1 size x 2 strategies x 1 p x 2 trials
    rows = read_csv(out)
    assert list(rows[0].keys()) == CSV_COLUMNS
    assert len(rows) == 4
    for row, rec in zip(rows, records):
        assert row["strategy"] == rec.strategy
        assert int(row["n"]) == 8
        assert row["error"] == ""
        assert float(row["err"]) == rec.err  # repr floats round-trip exactly
        assert int(row["wall_time_ns"]) > 0
        assert float(row["rho_cheap"]) == rec.rho_cheap
        assert row["rho_elem"] == ""  # cheap tracking leaves it unset


def test_run_is_deterministic_up_to_timing(tmp_path):
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    run(small_config(out1))
    run(small_config(out2))
    rows1, rows2 = read_csv(out1), read_csv(out2)
    for r1, r2 in zip(rows1, rows2):
        r1.pop("wall_time_ns")
        r2.pop("wall_time_ns")
        assert r1 == r2


def test_matrix_draw_ignores_strategy(tmp_path):
    cfg1 = small_config(str(tmp_path / "x.csv"), strategies=["rcp"])
    cfg2 = small_config(str(tmp_path / "y.csv"), strategies=["bbk"])
    a1, x1, b1 = _build_system(cfg1, "type6", 10, trial=0)
    a2, x2, b2 = _build_system(cfg2, "type6", 10, trial=0)
    assert np.array_equal(a1, a2) and np.array_equal(x1, x2) and np.array_equal(b1, b2)
    a3, _, _ = _build_system(cfg1, "type6", 10, trial=1)
    assert not np.array_equal(a1, a3)


def test_file_family_runs_single_size(tmp_path):
    mat = generate(MatrixSpec(family="type6", n=7, seed=1))
    mpath = str(tmp_path / "m.mtx")
    save_matrix_market(mat, mpath)
    out = str(tmp_path / "file.csv")
    records = run(
        small_config(out, families=[f"file:{mpath}"], sizes=[4, 8], trials=1)
    )
    assert len(records) == 2  # sizes collapse to one per file-backed family
    assert all(rec.n == 7 for rec in records)
    assert all(rec.error is None for rec in records)


def test_failing_cell_is_isolated(tmp_path):
    out = str(tmp_path / "mixed.csv")
    records = run(
        small_config(
            out,
            families=["file:/nonexistent.mtx", "type4"],
            strategies=["bkpp"],
            trials=1,
        )
    )
    assert len(records) == 2
    assert records[0].error is not None
    assert records[1].error is None
    rows = read_csv(out)  # the error text survives CSV quoting
    assert rows[0]["error"] == records[0].error


def test_resolve_out_path(tmp_path, monkeypatch):
    monkeypatch.setenv("RANDLDL_OUT_DIR", str(tmp_path))
    assert resolve_out_path("x.csv") == str(tmp_path / "x.csv")
    assert resolve_out_path("/abs/x.csv") == "/abs/x.csv"
    monkeypatch.delenv("RANDLDL_OUT_DIR")
    assert resolve_out_path("x.csv") == "x.csv"


# -- command line -----------------------------------------------------------


def test_cli_gen_writes_matrix_file(tmp_path, capsys):
    out = str(tmp_path / "t4.mtx")
    assert main(["gen", "--family", "type4", "--n", "6", "--out", out]) == 0
    assert "wrote type4" in capsys.readouterr().out
    assert np.array_equal(load_matrix_market(out), generate(MatrixSpec("type4", n=6)))


def test_cli_solve_reports_backward_error(tmp_path, capsys):
    mpath = str(tmp_path / "m.mtx")
    save_matrix_market(generate(MatrixSpec("type6", n=9, seed=3)), mpath)
    assert main(["solve", "--matrix", mpath, "--strategy", "bkpp"]) == 0
    out = capsys.readouterr().out
    assert "err = " in out and "singular = False" in out


def test_cli_run_executes_config(tmp_path, capsys):
    out = str(tmp_path / "cli.csv")
    cfg_path = tmp_path / "bench.cfg"
    cfg_path.write_text(
        f"strategies = bkpp\nfamilies = type4\nsizes = 6\nreps = 3\nout = {out}\n"
    )
    assert main(["run", "--config", str(cfg_path)]) == 0
    assert "wrote 1 records" in capsys.readouterr().out
    assert os.path.exists(out)


def test_cli_run_reports_failed_cells(tmp_path, capsys):
    out = str(tmp_path / "fail.csv")
    cfg_path = tmp_path / "bench.cfg"
    cfg_path.write_text(
        f"strategies = bkpp\nfamilies = file:/nonexistent.mtx\nsizes = 6\nreps = 3\nout = {out}\n"
    )
    assert main(["run", "--config", str(cfg_path)]) == 1
    assert "cell failed" in capsys.readouterr().err
    assert os.path.exists(out)


def test_cli_rejects_bad_inputs(tmp_path, capsys):
    assert main(["gen", "--family", "type1", "--n", "7", "--out", str(tmp_path / "x.mtx")]) == 1
    assert "bench:" in capsys.readouterr().err
    assert main(["solve", "--matrix", str(tmp_path / "missing.mtx")]) == 1
    assert "bench:" in capsys.readouterr().err
