"""``perfbench/run.py`` ends with a complete, strict-JSON result, traced or not."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _strict(text: str):
    def reject(name):
        raise ValueError(f"non-finite constant {name}")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("trace", [0, 1])
def test_short_run_prints_every_metric(trace):
    # A run that exits 0 but whose last line is not a full result (a span
    # whose wrapped name went missing, a NaN metric) must fail here.
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "adversarial",
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    *_, info_line, result_line = done.stdout.splitlines()
    info, result = _strict(info_line), _strict(result_line)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert set(result["metrics"]) == names
    for name, metric in result["metrics"].items():
        value = metric["value"]
        assert isinstance(value, (int, float)) and not isinstance(value, bool), name
        assert math.isfinite(value), name
    assert info["absent"] == []
