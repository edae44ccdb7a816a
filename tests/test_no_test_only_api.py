"""Every public function and class of the library is used by the library
or by a demo, so none of them is kept alive by the tests alone.

A name counts as used when some top-level statement of a library module
other than its own definition mentions it, as a bare name or as an
attribute, or when a demo does.  Package `__init__.py` files do not count:
a re-export is not a use.
"""

import ast
from pathlib import Path

import translim

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = Path(translim.__file__).parent

# names kept public on purpose although nothing calls them yet
ALLOWED = {
    # the set-image of a homomorphism; carrier-free finite modules (spans
    # in Howell form) are planned to build on it
    "instances.image",
}


def _mentioned(node):
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def test_every_public_name_has_a_library_or_demo_use():
    modules = sorted(p for p in LIBRARY.glob("*.py") if p.name != "__init__.py")
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert any(p.name == "diagrams.py" for p in modules) and demos
    used = set()
    for path in demos:
        used |= _mentioned(_parse(path))
    defined = []
    for path in modules:
        for stmt in _parse(path).body:
            names = _mentioned(stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                if not stmt.name.startswith("_"):
                    defined.append(f"{path.stem}.{stmt.name}")
                # a definition that mentions itself does not use itself
                names.discard(stmt.name)
            used |= names
    assert len(defined) > 100
    unused = [q for q in defined
              if q.split(".")[1] not in used and q not in ALLOWED]
    assert unused == []
