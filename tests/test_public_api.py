"""The README's account of the public names matches ``berkson_bands.__all__``,
and its Python examples run."""
from __future__ import annotations

import re
from pathlib import Path

import berkson_bands as bb

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks() -> list[str]:
    text = README.read_text(encoding="utf-8")
    return re.findall(r"```python\n(.*?)```", text, flags=re.S)


def test_readme_and_all_agree():
    text = README.read_text(encoding="utf-8")
    count = re.search(r"`berkson_bands\.__all__` holds the (\d+) names", text)
    assert count is not None, "README states no __all__ count"
    assert int(count.group(1)) == len(bb.__all__)
    for name in bb.__all__:
        assert hasattr(bb, name), name
    used = set(re.findall(r"\bbb\.(\w+)", "".join(python_blocks())))
    assert used, "README has no bb.<name> in its Python blocks"
    assert used <= set(bb.__all__), sorted(used - set(bb.__all__))


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    # one namespace: later examples use the names earlier ones define
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    for block in python_blocks():
        exec(compile(block, str(README), "exec"), namespace)
    assert (tmp_path / "band.csv").exists()
