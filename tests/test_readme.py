"""The README's code must run against the package as it is."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_library_sketch_runs(monkeypatch):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library sketch", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(ROOT)  # the sketch opens fixtures/ relative to the checkout
    scope: dict = {}
    exec(compile(code, "README.md", "exec"), scope)
    assert len(scope["samples"]) == 100
    assert all(scope["oracle"].table[w] > 0.0 for w in scope["samples"])
