"""The 11 golden CLI runs replay byte for byte under every interpreter on
PATH that the declared `requires-python` admits.

Each run is its own `python3.N -m translim.cli` process with PYTHONPATH
set to `src`.  An interpreter that is not on PATH, or that does not start
and report its own version, is skipped.  How slots, class attributes and
the hashes behind set and dict orders behave can differ from version to
version, and the in-process goldens only ever see the running one.
"""

import os
import shutil
import subprocess
from pathlib import Path

import pytest

from test_acceptance import GOLDEN, GOLDEN_RUNS

ROOT = Path(__file__).resolve().parent.parent
# minor versions of Python 3: requires-python's minimum to the newest release
OLDEST, NEWEST = 10, 13


def test_the_replayed_versions_start_at_the_declared_minimum():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert f'requires-python = ">=3.{OLDEST}"' in pyproject


def _started(name):
    """The path of interpreter `name` if it runs and is the version named."""
    path = shutil.which(name)
    if path is None:
        return None
    try:
        done = subprocess.run(
            [path, "-c", "import sys; print('python3.%d' % sys.version_info[1])"],
            capture_output=True, text=True, timeout=60)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if done.returncode != 0 or done.stdout.strip() != name:
        return None
    return path


@pytest.mark.parametrize("name", [f"python3.{minor}"
                                  for minor in range(OLDEST, NEWEST + 1)])
def test_golden_runs_replay_under_each_interpreter(name):
    path = _started(name)
    if path is None:
        pytest.skip(f"{name} is not on PATH or does not start")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for argv, golden in GOLDEN_RUNS:
        done = subprocess.run([path, "-m", "translim.cli", *argv], env=env,
                              capture_output=True, timeout=120)
        assert done.returncode == 0, (golden, done.stderr)
        assert done.stdout == (GOLDEN / golden).read_bytes(), golden
