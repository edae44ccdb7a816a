"""Every imported name in the library, the tests and the demos is used.

Package `__init__.py` files are exempt (their imports are the re-exported
public surface), and so are `from __future__` imports.
"""

import ast
from pathlib import Path

import translim

ROOT = Path(__file__).resolve().parent.parent
SOURCES = (Path(translim.__file__).parent, ROOT / "tests", ROOT / "demos")


def _unused(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_no_unused_imports():
    paths = sorted(p for src in SOURCES for p in src.glob("*.py")
                   if p.name != "__init__.py")
    assert any(p.name == "instances.py" for p in paths)
    assert any(p.parent.name == "demos" for p in paths)
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += [f"{path.parent.name}/{path.name}:{line} {name}"
                  for line, name in _unused(tree)]
    assert found == []
