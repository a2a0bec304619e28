"""The README's python examples run as written, top to bottom."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.M | re.S)


def test_readme_has_examples():
    assert len(BLOCKS) >= 3


def test_readme_examples_run(tmp_path, monkeypatch):
    # The blocks share one namespace: later ones use names defined earlier.
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    for i, block in enumerate(BLOCKS):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), namespace)
