"""End-to-end tests of the command line, run in process via main(argv).

Golden outputs live in tests/golden/.  To regenerate them after an
intentional output change:

    TRANSLIM_REGEN_GOLDENS=1 python3 -m pytest tests/test_cli.py

and review the diff before committing.
"""

import ast
import contextlib
import hashlib
import io
import json
import os
import pathlib
import sys
import time

import pytest
from hypothesis import example, given, settings

from conftest import ordinals
from translim import (OMEGA, TranslimError, cli, diagrams, errors,
                      format_ordinal, parse_instance, parse_ordinal)
from translim.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def check_golden(name: str, text: str) -> None:
    path = GOLDEN / name
    if os.environ.get("TRANSLIM_REGEN_GOLDENS") == "1":
        path.write_text(text, encoding="utf-8")
    assert text == path.read_text(encoding="utf-8")


# -- calculators -------------------------------------------------------------


def test_ordinal_add_example(capsys):
    code, out, err = run_cli(capsys, "ordinal", "add", "w+3", "w")
    assert (code, out, err) == (0, "w*2\n", "")


def test_ordinal_sub_is_left_subtraction(capsys):
    # sub A B answers: what g satisfies B + g = A
    code, out, _ = run_cli(capsys, "ordinal", "sub", "w+3", "w")
    assert (code, out) == (0, "3\n")
    code, out, _ = run_cli(capsys, "ordinal", "sub", "w", "3")
    assert (code, out) == (0, "w\n")


def test_ordinal_cmp_and_fmt(capsys):
    assert run_cli(capsys, "ordinal", "cmp", "w", "w+1")[:2] == (0, "lt\n")
    assert run_cli(capsys, "ordinal", "cmp", "w+w", "w*2")[:2] == (0, "eq\n")
    assert run_cli(capsys, "ordinal", "fmt", "w^1*1+0")[:2] == (0, "w\n")


def test_ordinal_points_golden(capsys):
    code, out, _ = run_cli(capsys, "ordinal", "points", "w*2")
    assert code == 0
    check_golden("ordinal_points_w2.txt", out)


def test_ordinal_usage_errors(capsys):
    code, _, err = run_cli(capsys, "ordinal", "add", "w")
    assert code == 2 and err.startswith("error:")
    code, _, err = run_cli(capsys, "ordinal", "fmt", "bogus")
    assert code == 2 and err.startswith("error:")


# -- term / limterm / sumterm ------------------------------------------------


def test_term_parse_normalizes(capsys):
    code, out, _ = run_cli(capsys, "term", "parse", "(+ x0 (scal 2 x1))")
    assert (code, out) == (0, "(+ x0 (scal 2 x1))\n")


def test_term_eval_json_golden(capsys):
    code, out, _ = run_cli(capsys, "term", "eval", "(+ x0 (scal 2 x1))",
                           "--module", "Z/4", "--seq", "[0,w)->1", "--json")
    assert code == 0
    assert json.loads(out)["value"] == "3"
    check_golden("term_eval_z4.json", out)


def test_limterm_eval_example(capsys):
    code, out, err = run_cli(capsys, "limterm", "eval", "--alpha", "w",
                             "--module", "Z/4", "--seq", "[0,w)->1")
    assert (code, out, err) == (0, "1\n", "")


def test_limterm_build_golden(capsys):
    code, out, _ = run_cli(capsys, "limterm", "build", "--alpha", "w+2")
    assert code == 0
    check_golden("limterm_build_wp2.txt", out)


def test_limterm_eval_length_mismatch(capsys):
    code, _, err = run_cli(capsys, "limterm", "eval", "--alpha", "w+1",
                           "--module", "Z/4", "--seq", "[0,w)->1")
    assert code == 2
    assert "covers w" in err and "w+1" in err


def test_sumterm_build_golden(capsys):
    code, out, _ = run_cli(capsys, "sumterm", "build", "--alpha", "w")
    assert (code, out) == (0, "(sum w [0,w)->idx)\n")
    check_golden("sumterm_build_w.txt", out)


def _cli(*argv):
    """(exit code, stdout, stderr) of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=80, deadline=None)
@given(ordinals(max_depth=3))
@example(parse_ordinal("w^(w+1)"))
@example(parse_ordinal("w^(w^2+1)+w^w*3"))
def test_term_parse_reads_back_built_terms(alpha):
    # an interval closes at the ")" that balances the ones inside it
    for command in ("limterm", "sumterm"):
        code, built, _ = _cli(command, "build", "--alpha",
                              format_ordinal(alpha))
        if command == "limterm" and alpha.is_zero:
            assert code == 2  # a limit term needs arity at least 1
            continue
        assert code == 0
        assert _cli("term", "parse", built.strip()) == (0, built, "")


def test_sumterm_eval_finite_support(capsys):
    code, out, _ = run_cli(capsys, "sumterm", "eval", "--alpha", "w",
                           "--module", "Z/4",
                           "--seq", "[0,3)->1; [3,w)->0")
    assert (code, out) == (0, "3\n")


def test_term_eval_sums_ten_million_points_by_the_piece(capsys):
    # the sum adds n times the value of a nonzero piece of n points, so the
    # piece's length does not count
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "term", "eval", "(sum w [0,w)->idx)",
                             "--module", "Z/2",
                             "--seq", "[0,10000000)->1;[10000000,w)->0")
    took = time.perf_counter() - start
    assert (code, out, err) == (0, "0\n", "")
    assert took < 1.0


def test_sumterm_eval_divergent_is_check_failure(capsys):
    code, out, err = run_cli(capsys, "sumterm", "eval", "--alpha", "w",
                             "--module", "Z/4", "--seq", "[0,w)->1")
    assert code == 1
    assert out == ""
    assert err.startswith("check failed: DivergentSumError:")


def test_sumterm_restrict(capsys):
    code, out, _ = run_cli(capsys, "sumterm", "restrict", "--alpha", "w",
                           "--module", "Z/4", "--seq", "[0,3)->1")
    assert (code, out) == (0, "3\n")
    # the family may not overhang the ambient index
    code, _, err = run_cli(capsys, "sumterm", "restrict", "--alpha", "3",
                           "--module", "Z/4", "--seq", "[0,w)->0")
    assert code == 2 and "beyond" in err


# -- check -------------------------------------------------------------------


def test_check_limterm_echoes_seed_and_passes(capsys):
    code, out, _ = run_cli(capsys, "check", "limterm", "--alpha", "w",
                           "--module", "Z/4", "--trials", "20",
                           "--seed", "7")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "seed: 7"
    assert lines[-1].startswith("check limterm: PASS")
    check_golden("check_limterm_w_z4_seed7.txt", out)


def test_check_limterm_on_a_large_module_evaluates_generators_only(capsys):
    # constants are checked on the one generator of Z/100000, not on
    # 100000 constant families
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "check", "limterm", "--alpha", "w",
                             "--module", "Z/100000", "--trials", "3")
    took = time.perf_counter() - start
    assert (code, err) == (0, "")
    assert out == ("seed: 0\n"
                   "alpha: w\n"
                   "term: (lim w [0,w)->idx)\n"
                   "  Z/100000: pass (3 trials)\n"
                   "check limterm: PASS (1/1 instances)\n")
    assert took < 0.1


def test_check_limterm_battery_golden(capsys):
    code, out, _ = run_cli(capsys, "check", "limterm", "--alpha", "w+1",
                           "--trials", "10")
    assert code == 0
    assert out.count(": pass") == 5
    check_golden("check_limterm_battery_wp1.txt", out)


def test_check_ab5_infinitary_golden(capsys):
    code, out, _ = run_cli(capsys, "check", "ab5", "--ring", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "seed: 0"
    assert "equivalence: PASS (conditions agree)" in lines
    assert "  limit terms:    holds" in lines
    check_golden("check_ab5_inf_w_mod2.txt", out)


def test_check_ab5_finitary_golden(capsys):
    code, out, _ = run_cli(capsys, "check", "ab5", "--ring", "2",
                           "--theory", "fin-add")
    assert code == 0
    assert "  limit terms:    fails" in out.splitlines()
    assert "equivalence: PASS (conditions agree)" in out
    check_golden("check_ab5_fin_w_mod2.txt", out)


def test_check_ab5_trivial_ring_finitary(capsys):
    # over the zero ring even finite sums reach everything
    code, out, _ = run_cli(capsys, "check", "ab5", "--mod", "1",
                           "--theory", "fin-add")
    assert code == 0
    assert "  limit terms:    holds" in out.splitlines()


@pytest.mark.parametrize("argv,limits,reach", [
    (("--ring", "3", "--set", "4"),
     {"passed": True, "trials": 100, "term": "(lim 4 [0,4)->idx)"},
     {"levels_checked": 4, "passed": True, "trials": 12, "witness": None}),
    (("--ring", "3", "--set", "4", "--theory", "fin-add"),
     {"exists": True, "witness_term": "x3"},
     {"certificate": {"kind": "finite-index", "support_bound": 4},
      "index": "4", "modulus": 3, "surjective": True}),
    (("--mod", "1", "--set", "w", "--theory", "inf-add"),
     {"passed": True, "trials": 100, "instance": "Z/1"},
     {"levels_checked": 2, "passed": True, "trials": 12, "witness": None}),
], ids=["inf-finite-index", "fin-finite-index", "inf-trivial-ring"])
def test_check_ab5_conditions_hold(capsys, argv, limits, reach):
    code, out, _ = run_cli(capsys, "check", "ab5", *argv)
    assert code == 0
    assert out.splitlines()[3:] == ["  limit terms:    holds",
                                    "  reachability:   holds",
                                    "  diagonal:       holds",
                                    "equivalence: PASS (conditions agree)"]
    code, out, _ = run_cli(capsys, "check", "ab5", *argv, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["conditions"] == {"limits": True, "reach": True,
                                     "diagonal": True}
    assert payload["agree"] is True
    details = payload["details"]
    assert {k: details["limits"][k] for k in limits} == limits
    assert details["reach"] == reach
    assert details["diagonal"]["verified"] is True


def test_check_ab5_usage_errors(capsys):
    code, _, err = run_cli(capsys, "check", "ab5")
    assert code == 2 and "one of --ring or --mod" in err
    code, _, err = run_cli(capsys, "check", "ab5", "--ring", "2",
                           "--mod", "3")
    assert code == 2 and "disagree" in err
    code, _, err = run_cli(capsys, "check", "ab5", "--ring", "2",
                           "--set", "w*2")
    assert code == 2 and "finite or w" in err
    code, _, err = run_cli(capsys, "check", "ab5", "--ring", "0")
    assert code == 2 and "at least 1" in err


def test_check_refute_successor_has_witness(capsys):
    code, out, _ = run_cli(capsys, "check", "refute", "--mod", "3",
                           "--alpha", "5")
    assert code == 0
    assert out.splitlines() == [
        "seed: 0",
        "theory: add-fin mod 3",
        "alpha: 5",
        "verdict: a limit term exists",
        "witness: x4",
        "witness check: pass",
    ]


def test_check_refute_challenge_golden(capsys):
    code, out, _ = run_cli(capsys, "check", "refute", "--mod", "2",
                           "--alpha", "w", "--term", "(+ x0 x1)")
    assert code == 0
    assert "verdict: no limit term exists" in out
    assert "certificate check: pass" in out
    check_golden("check_refute_mod2_w_challenge.txt", out)


def test_check_refute_rejects_malformed_candidate(capsys):
    code, _, err = run_cli(capsys, "check", "refute", "--mod", "2",
                           "--alpha", "w", "--term", "(+ x0")
    assert code == 2 and err.startswith("error:")



@pytest.mark.parametrize("argv", [
    ("check", "limterm", "--alpha", "w", "--trials", "-5"),
    ("check", "ab5", "--ring", "2", "--trials", "-5"),
])
def test_negative_trials_are_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: --trials must be at least 0\n"


@pytest.mark.parametrize("mod", ["0", "-3"])
def test_check_refute_rejects_a_modulus_below_one(capsys, mod):
    code, out, err = run_cli(capsys, "check", "refute", "--mod", mod)
    assert (code, out) == (2, "")
    assert err == "error: the modulus must be at least 1\n"

# -- diagram -----------------------------------------------------------------


def test_diagram_sample_golden(capsys):
    code, out, err = run_cli(capsys, "diagram", "sample", "--mod", "4",
                             "--seed", "3")
    assert code == 0
    assert err == "seed: 3\n"
    json.loads(out)
    check_golden("diagram_sample_mod4_seed3.json", out)


def test_diagram_sample_check_roundtrip(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "diagram", "sample", "--mod", "4",
                           "--seed", "3")
    assert code == 0
    path = tmp_path / "system.json"
    path.write_text(out, encoding="utf-8")

    code, out, err = run_cli(capsys, "diagram", "check", str(path))
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[0] == "index: w"
    assert lines[-1] == "diagram check: PASS"

    code, out, _ = run_cli(capsys, "diagram", "check", str(path), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["index"] == "w"

    code, out, _ = run_cli(capsys, "diagram", "limit", str(path))
    assert code == 0
    assert out.splitlines()[0].startswith("limit: ")


def test_diagram_limit_on_a_large_constant_system_is_not_quadratic(
        capsys, tmp_path):
    # each listed thread asks the limit carrier for membership once, so
    # that test must not scan the 16384-element carrier
    system = diagrams.InverseSystem(OMEGA, (parse_instance("Z/16384"),), (),
                                    "constant")
    path = tmp_path / "z16384.json"
    path.write_text(json.dumps(diagrams.system_to_json(system)),
                    encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "diagram", "limit", str(path))
    took = time.perf_counter() - start
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[0] == "limit: 16384 threads, depth 0"
    assert lines[-1] == "  16383 <- 16383"
    assert took < 1.0


def test_diagram_check_missing_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, "diagram", "check",
                           str(tmp_path / "nope.json"))
    assert code == 2 and err.startswith("error: cannot read diagram file")


def test_diagram_check_bad_json(capsys, tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run_cli(capsys, "diagram", "check", str(path))
    assert code == 2 and "not JSON" in err


def test_diagram_check_bad_field(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "diagram", "sample", "--mod", "2",
                           "--seed", "0")
    data = json.loads(out)
    del data["index"]
    path = tmp_path / "mangled.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, _, err = run_cli(capsys, "diagram", "check", str(path))
    assert code == 2 and "missing field 'index'" in err


# -- usage errors --------------------------------------------------------------

BAD_LEVEL = "bad-level:"  # argv placeholder for a diagram file with that level
BAD_THEORY = "bad-theory:"  # ... with that JSON text as its theory
BAD_INDEX = "bad-index:"  # ... with that index string
NESTED = "nested:"  # argv placeholder for a file of that many '['
DEEP = "recursion limit"
# the longest number the interpreter converts from text: the sum of two
# of them has one digit more
BIG = "9" * sys.get_int_max_str_digits()


def _diagram_with_level(tmp_path, level, theory="add-inf mod 2",
                        index="w") -> str:
    path = tmp_path / "bad-level.json"
    path.write_text(json.dumps({
        "index": index, "theory": theory, "prefix": ["Z/2", level],
        "tail": "constant", "maps": [[[[0], [0]], [[1], [1]]]]}),
        encoding="utf-8")
    return str(path)


def _argv_file(tmp_path, arg) -> str:
    if arg.startswith(BAD_LEVEL):
        return _diagram_with_level(tmp_path, arg[len(BAD_LEVEL):])
    if arg.startswith(BAD_THEORY):
        return _diagram_with_level(tmp_path, "Z/2",
                                   json.loads(arg[len(BAD_THEORY):]))
    if arg.startswith(BAD_INDEX):
        return _diagram_with_level(tmp_path, "Z/2",
                                   index=arg[len(BAD_INDEX):])
    if arg.startswith(NESTED):
        path = tmp_path / "nested.json"
        path.write_text("[" * int(arg[len(NESTED):]), encoding="utf-8")
        return str(path)
    return arg


@pytest.mark.parametrize("argv,needle", [
    (("diagram", "sample", "--mod", "0"), "the modulus must be at least 1"),
    (("diagram", "sample", "--mod", "-3"), "the modulus must be at least 1"),
    (("diagram", "check", BAD_LEVEL + "Z/3"),
     "diagram.prefix[1]: component order 3 does not divide the modulus 2"),
    (("diagram", "check", BAD_LEVEL + "Z/0"),
     "diagram.prefix[1]: cyclic order must be >= 1"),
    (("diagram", "check", BAD_LEVEL + "free(add-inf mod 2, w)"),
     "diagram.prefix[1]: expected Z/<n> or 0"),
    (("diagram", "check", BAD_THEORY + "5"),
     "diagram.theory: expected a theory literal string"),
    (("check", "ab5", "--ring", "2", "--set", "w*2"), "finite or w"),
    (("check", "refute", "--mod", "0"), "the modulus must be at least 1"),
    (("check", "limterm", "--alpha", "w", "--trials", "-1"),
     "--trials must be at least 0"),
    (("check", "ab5", "--ring", "2", "--trials", "-1"),
     "--trials must be at least 0"),
    (("ordinal", "fmt", "w^" * 3000 + "1"), DEEP),
    (("term", "parse", "(- " * 3000 + "x0" + ")" * 3000), DEEP),
    (("diagram", "check", NESTED + "100000"), DEEP),
    # the finitary diagonal term for 600 is a 599-deep chain of +
    (("check", "ab5", "--ring", "2", "--set", "600", "--theory", "fin-add",
      "--trials", "2"), DEEP),
    # the calculators check nothing: a bad operand is a usage error
    (("ordinal", "sub", "3", "w"), "OrdinalUnderflowError: w > 3"),
    (("ordinal", "sub", "w", "w+1"), "OrdinalUnderflowError: w+1 > w"),
    (("limterm", "build", "--alpha", "0"),
     "InvalidAlphaError: a limit term needs arity at least 1"),
    (("check", "limterm", "--alpha", "0", "--module", "Z/2"),
     "--alpha must be an ordinal of at least 1"),
    (("check", "refute", "--mod", "2", "--alpha", "0"),
     "--alpha must be an ordinal of at least 1"),
    (("diagram", "check", BAD_INDEX + "0"),
     'diagram.index: expected "w" or an integer string of at least 1'),
    (("diagram", "limit", BAD_INDEX + "-1"),
     'diagram.index: expected "w" or an integer string of at least 1'),
    # a digit that int() rejects is no digit; a number past the interpreter's
    # limit on integer string conversion is a usage error, not a traceback
    (("ordinal", "fmt", "\u00b2"), "expected 'w' or a number (at position 0)"),
    (("term", "parse", "(scal \u00b2 x0)"),
     "scalar must be a natural number: '\u00b2' (at position 6)"),
    (("limterm", "eval", "--alpha", "w", "--module", "Z/2",
      "--seq", "[0,\u00b2)->1"), "(at position 3)"),
    (("ordinal", "fmt", "9" * 5000), "digits (at position 0)"),
    (("term", "parse", "(scal " + "9" * 5000 + " x0)"),
     "digits (at position 6)"),
    # a term naming an operation its theory lacks is an input error
    (("term", "parse", "(f x1)", "--theory", "add-inf mod 2"),
     "TheoryMismatchError: unknown operation 'f'"),
    (("term", "eval", "(f x0)", "--module", "Z/2", "--seq", "[0,1)->1"),
     "TheoryMismatchError: unknown operation 'f'"),
    (("check", "refute", "--mod", "2", "--term", "(f x0)"),
     "TheoryMismatchError: unknown operation 'f'"),
    # a candidate or an assignment that leaves a variable unbound
    (("check", "refute", "--mod", "2", "--alpha", "w", "--term", "xw"),
     "UnboundVariableError: variable xw outside declared set of size w"),
    (("term", "eval", "(+ x0 x5)", "--module", "Z/2", "--seq", "[0,3)->1"),
     "UnboundVariableError: variable x5 not covered by the assignment"),
    # a module that the command cannot run on
    (("limterm", "eval", "--alpha", "w", "--module",
      "free(add-fin mod 2, w)", "--seq", "[0,w)->x0"),
     "TheoryMismatchError: finitary theory: no infinitary sum"),
    (("check", "limterm", "--alpha", "w", "--module",
      "free(add-inf mod 2, w)", "--trials", "1"),
     "InfiniteCarrierError: free(add-inf mod 2, w) is not finite"),
    # answers past an interpreter limit are refused, not attempted
    (("ordinal", "add", BIG, BIG),
     "ResourceLimitError: a coefficient has more than"),
    (("sumterm", "eval", "--alpha", "10000000", "--module",
      "free(add-inf mod 2, w)", "--seq", "[0,10000000)->x0"),
     "ResourceLimitError: a sum of 10000000 points over a free module"),
    # listings past the enumeration limit are refused before they are built
    (("check", "ab5", "--ring", "100000000"),
     "ResourceLimitError: the carrier of Z/100000000 can list more than "
     "1048576 items"),
    (("check", "ab5", "--ring", "3000000"),
     "ResourceLimitError: the carrier of Z/3000000 can list more than"),
    (("ordinal", "points", "100000000"),
     "ResourceLimitError: the sample grid below 100000000 can list more"),
], ids=["sample-mod-0", "sample-mod-negative", "level-not-dividing",
        "level-order-0", "level-free", "theory-not-string", "ab5-set-w2", "refute-mod-0",
        "limterm-trials", "ab5-trials", "deep-ordinal", "deep-term",
        "deep-json", "ab5-deep-diagonal", "ordinal-sub-underflow",
        "ordinal-sub-underflow-w", "limterm-build-alpha-0",
        "check-limterm-alpha-0", "refute-alpha-0", "diagram-index-0",
        "diagram-index-negative", "ordinal-superscript-digit",
        "scal-superscript-digit", "family-bound-superscript-digit",
        "ordinal-too-many-digits", "scal-too-many-digits",
        "term-parse-unknown-op", "term-eval-unknown-op",
        "refute-unknown-op", "refute-unbound-variable",
        "term-eval-unbound-variable", "limterm-eval-finitary-free",
        "check-limterm-free", "ordinal-sum-too-many-digits",
        "free-sum-too-deep", "ab5-ring-10^8",
        "ab5-ring-3*10^6", "ordinal-points-10^8"])
def test_known_bad_inputs_exit_two(capsys, tmp_path, argv, needle):
    argv = [_argv_file(tmp_path, a) for a in argv]
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    took = time.perf_counter() - start
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and needle in err
    assert took < 1.0  # refused up front, not after building the answer


# -- suite -------------------------------------------------------------------


def test_suite_run_all_golden(capsys):
    code, out, _ = run_cli(capsys, "suite", "run", "all")
    assert code == 0
    assert out.splitlines()[0] == "suite transfinite (seed 0)"
    assert "suite transfinite: 40/40 passed" in out
    assert "suite diagrams: 33/33 passed" in out
    assert "suite ab5: 35/35 passed" in out
    assert out.rstrip().endswith("suite run: PASS")
    check_golden("suite_run_all_seed0.txt", out)


def test_suite_run_one_with_seed(capsys):
    code, out, _ = run_cli(capsys, "suite", "run", "diagrams",
                           "--seed", "4")
    assert code == 0
    assert out.splitlines()[0] == "suite diagrams (seed 4)"


def test_suite_run_json_totals(capsys):
    code, out, _ = run_cli(capsys, "suite", "run", "transfinite", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["suites"][0]["total"] == 40


def test_suite_run_fails_under_tampered_evaluator(capsys, monkeypatch):
    # negative control: a broken limit evaluator must not pass the suite
    monkeypatch.setattr("translim.transfinite.lim_eval",
                        lambda module, fam: module.zero())
    code, out, _ = run_cli(capsys, "suite", "run", "transfinite")
    assert code == 1
    assert out.rstrip().endswith("suite run: FAIL")


# -- plumbing ----------------------------------------------------------------


def test_help_exits_zero(capsys):
    assert run_cli(capsys, "--help")[0] == 0


def test_one_parser_answers_like_a_fresh_one(capsys, monkeypatch):
    # usage errors, defaults and help must not depend on earlier parses
    argvs = [("ordinal", "frob", "w"),
             ("suite", "run", "transfinite", "--seed", "3"),
             ("suite", "run", "transfinite"),
             ("--help",), ("check", "ab5", "--help"),
             ("ordinal", "frob", "w")]
    shared = [run_cli(capsys, *argv) for argv in argvs]
    assert cli._parser() is cli._parser()
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    fresh = [run_cli(capsys, *argv) for argv in argvs]
    assert shared == fresh
    assert [code for code, _, _ in shared] == [2, 0, 0, 0, 0, 2]
    assert shared[1] != shared[2]


COMMAND_PATHS = [
    (), ("ordinal",), ("term",), ("term", "parse"), ("term", "eval"),
    ("limterm",), ("limterm", "build"), ("limterm", "eval"), ("sumterm",),
    ("sumterm", "build"), ("sumterm", "eval"), ("sumterm", "restrict"),
    ("check",), ("check", "limterm"), ("check", "ab5"), ("check", "refute"),
    ("diagram",), ("diagram", "check"), ("diagram", "limit"),
    ("diagram", "sample"), ("suite",), ("suite", "run")]


def test_parser_text_is_pinned(capsys, monkeypatch):
    # help, the usage error of a bare path and of an unknown flag, for every
    # command path; argparse formats for the width in COLUMNS, and its
    # wording varies between Python versions
    recorded = json.loads((GOLDEN / "parser_text.json").read_text("utf-8"))
    if recorded["python"] != "%d.%d" % sys.version_info[:2]:
        pytest.skip(f"parser text recorded under Python {recorded['python']}")
    monkeypatch.setenv("COLUMNS", "80")
    digests = {}
    for path in COMMAND_PATHS:
        for case, extra in (("--help", ["--help"]), ("bare", []),
                            ("--bogus", ["--bogus"])):
            result = run_cli(capsys, *path, *extra)
            digests[" ".join(["translim", *path, case])] = hashlib.sha256(
                json.dumps(result).encode()).hexdigest()
    assert len(digests) == 66
    check_golden("parser_text.json", json.dumps(
        {"python": recorded["python"], "sha256": digests}, indent=1,
        sort_keys=True) + "\n")


def test_the_command_table_alone_builds_the_parser_and_maps_errors():
    # argparse calls live in build_parser, no handler dispatches on a verb,
    # and no handler turns a library error into a ParseError: each row's
    # usage_errors decide between exit 1 and 2
    tree = ast.parse(pathlib.Path(cli.__file__).read_text(encoding="utf-8"))
    builder = next(node for node in tree.body
                   if getattr(node, "name", None) == "build_parser")
    in_builder = {id(node) for node in ast.walk(builder)}
    stray = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in (
                 "add_parser", "add_argument", "add_subparsers")
             and id(node) not in in_builder]
    verbs = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and node.attr in ("verb", "target")]
    rewraps = [handler.lineno for handler in ast.walk(tree)
               if isinstance(handler, ast.ExceptHandler)
               and handler.type is not None
               and any(isinstance(n, ast.Raise) for n in ast.walk(handler))
               and any(isinstance(getattr(errors, n.id, None), type)
                       and issubclass(getattr(errors, n.id), TranslimError)
                       for n in ast.walk(handler.type)
                       if isinstance(n, ast.Name))]
    assert (stray, verbs, rewraps) == ([], [], [])


def test_unknown_command_exits_two(capsys):
    assert run_cli(capsys, "frobnicate")[0] == 2


def test_missing_subcommand_exits_two(capsys):
    assert run_cli(capsys)[0] == 2


@pytest.mark.parametrize("argv", [
    ("ordinal", "add", "w+3", "w", "--json"),
    ("term", "parse", "(sum w [0,w)->idx)", "--json"),
    ("limterm", "eval", "--alpha", "w", "--module", "Z/4",
     "--seq", "[0,w)->1", "--json"),
    ("check", "refute", "--mod", "2", "--alpha", "3", "--json"),
], ids=["ordinal", "term-parse", "limterm-eval", "check-refute"])
def test_json_flag_emits_one_json_object(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    payload = json.loads(out)
    assert "command" in payload


@pytest.mark.parametrize("argv", [
    ("check", "limterm", "--alpha", "w", "--module", "Z/4",
     "--trials", "20"),
    ("diagram", "sample", "--mod", "4", "--seed", "3"),
    ("suite", "run", "ab5"),
    ("check", "ab5", "--ring", "3", "--set", "4", "--json"),
], ids=["check-limterm", "diagram-sample", "suite-ab5", "check-ab5"])
def test_identical_argv_identical_bytes(capsys, argv):
    first = run_cli(capsys, *argv)
    second = run_cli(capsys, *argv)
    assert first == second
    assert first[0] == 0
