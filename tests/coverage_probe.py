"""Line-coverage probe: which function-body statements of src/translim does
no test reach?

A pytest plugin, loaded only when asked for:

    PYTHONPATH=src:tests python -m pytest -p coverage_probe -q

It installs a sys.settrace tracer when pytest starts and again at each
test's setup (a library may have replaced it), records the lines that run
inside src/translim, and at the end lists, module by module, the statements
inside function bodies whose first line never ran.  Docstrings, `global`
and `nonlocal` are not statements that run, so they are skipped; module and
class bodies run at import and are not counted.  Only code that runs in the
pytest process is seen: a CLI run in a subprocess is not.  The tracer slows
the suite about threefold, so tier-1 does not load it.
"""

import ast
import pathlib
import sys
import threading

import pytest

import translim

LIBRARY = pathlib.Path(translim.__file__).resolve().parent
_ran = {}      # file name -> set of line numbers that ran
_local = {}    # code object -> its local tracer, or None outside the library


def _tracer_for(code):
    name = code.co_filename
    if not name.startswith(str(LIBRARY)):
        return None
    lines = _ran.setdefault(name, set())

    def local(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return local
    return local


def _trace(frame, event, arg):
    code = frame.f_code
    try:
        return _local[code]
    except KeyError:
        local = _local[code] = _tracer_for(code)
        return local


def install():
    if sys.gettrace() is not _trace:
        sys.settrace(_trace)
    threading.settrace(_trace)


def body_statements(tree):
    """First lines of the statements inside function bodies, nested
    blocks included, without docstrings, `global` and `nonlocal`."""
    out = set()

    def block(stmts, in_function):
        for i, s in enumerate(stmts):
            if in_function and not (
                    i == 0 and isinstance(s, ast.Expr)
                    and isinstance(s.value, ast.Constant)
                    and isinstance(s.value.value, str)) and not isinstance(
                    s, (ast.Global, ast.Nonlocal)):
                out.add(s.lineno)
            inner = isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef))
            for field in ("body", "orelse", "finalbody"):
                block(getattr(s, field, []), in_function or inner)
            for handler in getattr(s, "handlers", []):
                block(handler.body, in_function)
            for case in getattr(s, "cases", []):
                block(case.body, in_function)
            if isinstance(s, ast.ClassDef):
                block(s.body, False)

    block(tree.body, False)
    return out


def unreached():
    """{module file name: sorted unreached statement lines}, and the number
    of statements counted."""
    report, total = {}, 0
    for path in sorted(LIBRARY.glob("*.py")):
        stmts = body_statements(ast.parse(path.read_text(encoding="utf-8")))
        total += len(stmts)
        missed = sorted(stmts - _ran.get(str(path), set()))
        if missed:
            report[path.name] = missed
    return report, total


def report_lines(probe):
    """Stop tracing; the unreached statements, a headline and one line per
    module."""
    sys.settrace(None)
    threading.settrace(None)
    report, total = unreached()
    missed = sum(len(lines) for lines in report.values())
    yield (f"{probe}: {missed} of {total} function-body statements "
           f"in {LIBRARY.name} unreached")
    for name, lines in report.items():
        yield f"  {name}: {len(lines)}: {', '.join(map(str, lines))}"


def pytest_configure(config):
    install()


@pytest.hookimpl(tryfirst=True)
def pytest_runtest_setup(item):
    install()


def pytest_terminal_summary(terminalreporter):
    for line in report_lines("coverage probe"):
        terminalreporter.write_line(line)
