"""No check in the library lives in a bare assert, which python -O strips."""

import ast
from pathlib import Path

import translim


def test_no_bare_assert_in_the_library():
    sources = sorted(Path(translim.__file__).parent.glob("*.py"))
    assert any(p.name == "transfinite.py" for p in sources)
    found = []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
