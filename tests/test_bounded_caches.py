"""No cache in the library grows without bound.

`functools.cache` and `functools.lru_cache(maxsize=None)` keep every
argument they have seen for the life of the process.  They are allowed
only as the decorator of a function with no parameters, whose cache holds
one value; every other cache names a fixed `maxsize`.
"""

import ast
from pathlib import Path

import pytest

import translim

SOURCE = Path(translim.__file__).parent


def _functools_names(tree):
    """Local names bound to functools.cache and functools.lru_cache."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            for alias in node.names:
                if alias.name in ("cache", "lru_cache"):
                    names[alias.asname or alias.name] = alias.name
    return names


def _refers_to(node, name, local):
    if isinstance(node, ast.Attribute):
        return (node.attr == name and isinstance(node.value, ast.Name)
                and node.value.id == "functools")
    return isinstance(node, ast.Name) and local.get(node.id) == name


def _unbounded(node, local):
    """Whether the expression is an unbounded cache decorator."""
    if _refers_to(node, "cache", local):
        return True
    if isinstance(node, ast.Call) and _refers_to(node.func, "lru_cache",
                                                 local):
        maxsize = node.args[:1] + [k.value for k in node.keywords
                                   if k.arg == "maxsize"]
        return any(isinstance(v, ast.Constant) and v.value is None
                   for v in maxsize)
    return False


def _has_parameters(fn):
    a = fn.args
    return bool(a.posonlyargs or a.args or a.vararg or a.kwonlyargs
                or a.kwarg)


def unbounded_caches(source: str):
    """Line numbers of unbounded caches outside a parameterless decorator."""
    tree = ast.parse(source)
    local = _functools_names(tree)
    allowed = {id(d) for fn in ast.walk(tree)
               if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
               and not _has_parameters(fn)
               for d in fn.decorator_list}
    return sorted(node.lineno for node in ast.walk(tree)
                  if _unbounded(node, local) and id(node) not in allowed)


@pytest.mark.parametrize("source,lines", [
    ("import functools\n@functools.cache\ndef f():\n    return 1\n", []),
    ("import functools\n@functools.cache\ndef f(x):\n    return x\n", [2]),
    ("from functools import cache\n@cache\ndef f(x):\n    return x\n", [2]),
    ("import functools\n@functools.lru_cache(maxsize=None)\n"
     "def f(x):\n    return x\n", [2]),
    ("from functools import lru_cache as lc\n@lc(None)\n"
     "def f(x):\n    return x\n", [2]),
    ("import functools\n@functools.lru_cache(maxsize=8)\n"
     "def f(x):\n    return x\n", []),
    ("import functools\n@functools.lru_cache\ndef f(x):\n    return x\n", []),
    ("import functools\nclass C:\n    @functools.cache\n"
     "    def f(self):\n        return 1\n", [3]),
    ("import functools\ng = functools.cache(len)\n", [2]),
])
def test_the_scan_finds_unbounded_caches(source, lines):
    assert unbounded_caches(source) == lines


def test_no_unbounded_caches():
    paths = sorted(SOURCE.glob("*.py"))
    assert any(p.name == "ordinal.py" for p in paths)
    found = [f"{path.name}:{line}" for path in paths
             for line in unbounded_caches(path.read_text(encoding="utf-8"))]
    assert found == []
