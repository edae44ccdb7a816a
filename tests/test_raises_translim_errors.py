"""The library raises only TranslimError subclasses, so callers catch one class.

The two exceptions follow Python's protocols: the TypeError of
`Ordinal.__radd__`, because `tuple + Ordinal` must fail the way Python's
own operators fail, and the AttributeError of the package's module
`__getattr__`, because `getattr`, `hasattr` and `from translim import x`
read an unknown name through it.
"""

import ast
from pathlib import Path

import translim
from translim import errors

ALLOWED = {("ordinal.py", "__radd__", "TypeError"),
           ("__init__.py", "__getattr__", "AttributeError")}


def _raises(node, function):
    """(enclosing function, raised name, line) of every raise under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _raises(child, child.name)
            continue
        if isinstance(child, ast.Raise) and child.exc is not None:
            exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
            yield function, ast.unparse(exc), child.lineno
        yield from _raises(child, function)


def _is_translim_error(name):
    cls = getattr(errors, name, None)
    return isinstance(cls, type) and issubclass(cls, errors.TranslimError)


def test_the_library_raises_only_translim_errors():
    sources = sorted(Path(translim.__file__).parent.glob("*.py"))
    assert any(p.name == "instances.py" for p in sources)
    found, allowed = [], []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for function, name, line in _raises(tree, None):
            if (path.name, function, name) in ALLOWED:
                allowed.append((path.name, function, name))
            elif not _is_translim_error(name):
                found.append(f"{path.name}:{line}: raise {name}")
    assert found == []
    assert sorted(allowed) == sorted(ALLOWED)


def test_former_builtin_errors_keep_their_builtin_base():
    assert issubclass(errors.ModuleValidationError, ValueError)
    assert issubclass(errors.PositiveVerdictError, ValueError)
    assert issubclass(errors.UnknownSuiteError, KeyError)
