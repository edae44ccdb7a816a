"""Suite reports: pinned totals, determinism, schemas, negative control."""

import jsonschema
import pytest

from translim import (
    SuiteReport,
    ab5_suite,
    diagrams_suite,
    run_suite,
    transfinite_suite,
)
from translim.cli import main
from translim.ordinal import _sample_grid
from translim.reports import CASE_RESULT_SCHEMA, SUITE_REPORT_SCHEMA, case


def test_case_constructor_drops_witness_on_pass():
    ok = case("x", True, witness={"ignored": 1})
    assert ok.verdict == "pass" and ok.witness is None
    bad = case("x", False, witness={"kept": 1})
    assert bad.verdict == "fail" and bad.witness == {"kept": 1}
    assert case("x", False).witness is None


def test_report_json_matches_schema():
    report = transfinite_suite(0)
    data = report.to_json()
    jsonschema.validate(data, SUITE_REPORT_SCHEMA)
    for c in data["cases"]:
        jsonschema.validate(c, CASE_RESULT_SCHEMA)
    assert data["total"] == data["passed"] + data["failed"]


def test_render_text_shape():
    synthetic = SuiteReport("demo", 7, (
        case("first law", True, alpha="w", instance="Z/2"),
        case("second law", False, witness={"got": "1"}),
    ))
    text = synthetic.render_text()
    lines = text.splitlines()
    assert lines[0] == "suite demo (seed 7)"
    assert lines[1] == "  [pass] first law  alpha=w  instance=Z/2"
    assert lines[2] == "  [FAIL] second law"
    assert lines[3] == '         witness: {"got": "1"}'
    assert lines[-1] == "suite demo: 1/2 passed"
    assert not synthetic.ok


@pytest.mark.parametrize("fn,name,total", [
    (transfinite_suite, "transfinite", 40),
    (diagrams_suite, "diagrams", 33),
    (ab5_suite, "ab5", 35),
])
def test_suite_totals_pinned_and_green(fn, name, total):
    report = fn(0)
    assert report.suite == name
    assert report.total == total
    failing = [c for c in report.cases if c.verdict != "pass"]
    assert not failing, [c.to_json() for c in failing]
    assert report.ok and report.passed == total


@pytest.mark.parametrize("seed", [1, 2])
def test_suites_pass_at_other_seeds(seed):
    for report in run_suite("all", seed):
        assert report.ok, [c.to_json() for c in report.cases
                           if c.verdict != "pass"]
        assert report.seed == seed


def test_suites_are_deterministic():
    assert transfinite_suite(5).to_json() == transfinite_suite(5).to_json()
    assert diagrams_suite(9).to_json() == diagrams_suite(9).to_json()
    assert ab5_suite(4).to_json() == ab5_suite(4).to_json()


def test_run_suite_dispatch():
    reports = run_suite("all", 0)
    assert [r.suite for r in reports] == ["transfinite", "diagrams", "ab5"]
    only = run_suite("diagrams", 3)
    assert len(only) == 1 and only[0].suite == "diagrams"
    with pytest.raises(KeyError):
        run_suite("bogus")


def test_tampered_limit_evaluator_fails_the_suite(monkeypatch):
    monkeypatch.setattr("translim.transfinite.lim_eval",
                        lambda module, fam: module.zero())
    report = transfinite_suite(0)
    assert not report.ok
    assert report.failed > 0
    rendered = report.render_text()
    assert "[FAIL]" in rendered and "witness:" in rendered


def test_suite_run_builds_each_sample_grid_once(capsys):
    _sample_grid.cache_clear()
    assert main(["suite", "run", "all"]) == 0
    capsys.readouterr()
    info = _sample_grid.cache_info()
    # each miss ran the grid body once, and no grid was evicted and rebuilt
    assert info.misses == info.currsize < info.maxsize
    assert info.hits > info.misses


def test_suite_run_makes_no_submodule_pair_check(capsys, pair_check_adds):
    # every submodule the suites build is an image or a limit carrier,
    # which hold by construction
    assert main(["suite", "run", "all"]) == 0
    capsys.readouterr()
    assert pair_check_adds[0] == 0
