"""Replay the CLI output corpus in tests/golden/diagram_corpus.json.

Every entry must reproduce its recorded (exit code, stdout, stderr) digest
byte for byte.  After an intentional output change, regenerate the corpus
with tests/golden/make_diagram_corpus.py and review the diff.
"""

import importlib.util
import json
import pathlib

from translim import cli

GOLDEN = pathlib.Path(__file__).parent / "golden"


def _corpus_tool():
    spec = importlib.util.spec_from_file_location(
        "make_diagram_corpus", GOLDEN / "make_diagram_corpus.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_corpus_covers_the_argv_grid():
    tool = _corpus_tool()
    entries = json.loads(tool.CORPUS.read_text(encoding="utf-8"))
    assert [e["argv"] for e in entries] == tool.argv_lists()


def test_corpus_runs_every_command():
    argvs = _corpus_tool().argv_lists()
    missing = [row.path for row in cli.COMMANDS
               if not any(tuple(argv[:len(row.path)]) == row.path
                          for argv in argvs)]
    assert len(cli.COMMANDS) == 15 and missing == []


def test_corpus_replays_byte_for_byte(tmp_path):
    tool = _corpus_tool()
    entries = json.loads(tool.CORPUS.read_text(encoding="utf-8"))
    assert len(entries) > 200
    changed = [e["argv"] for e in entries
               if tool.digest(tool.run(tool.expand(e["argv"], tmp_path)))
               != e["sha256"]]
    assert changed == []
