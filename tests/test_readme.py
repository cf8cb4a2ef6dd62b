"""The README's Library example runs as written, so the documented API cannot drift."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def library_example() -> str:
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)  # the example names the fixtures by their path in a checkout
    exec(compile(library_example(), "README.md", "exec"), {})
    best, edf = capsys.readouterr().out.splitlines()
    assert best.startswith("(") and edf.split()[0].isdigit()
