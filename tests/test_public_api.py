"""The README's account of the public names matches ``berkson_bands.__all__``."""
from __future__ import annotations

import re
from pathlib import Path

import berkson_bands as bb

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_and_all_agree():
    text = README.read_text(encoding="utf-8")
    count = re.search(r"`berkson_bands\.__all__` holds the (\d+) names", text)
    assert count is not None, "README states no __all__ count"
    assert int(count.group(1)) == len(bb.__all__)
    for name in bb.__all__:
        assert hasattr(bb, name), name
    blocks = re.findall(r"```python\n(.*?)```", text, flags=re.S)
    used = set(re.findall(r"\bbb\.(\w+)", "".join(blocks)))
    assert used, "README has no bb.<name> in its Python blocks"
    assert used <= set(bb.__all__), sorted(used - set(bb.__all__))
