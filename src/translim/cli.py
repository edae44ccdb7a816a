"""Command-line front end.

One binary with subcommands: an ordinal calculator, a term evaluator,
limit/summation term runners, named checks, diagram file tooling, and the
suite runner.  Output is plain text unless --json is given; identical argv
plus seed produce identical bytes.  Exit codes: 0 success, 1 check failure,
2 usage or parse error (input nested past the recursion limit included).

Seed echoing: subcommands that consume randomness (check, suite, diagram
sample) always state their seed.  The pure calculator subcommands take no
seed and print the bare result.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys

from . import ab5check, diagrams, sampling, suites, transfinite
from .errors import (InvalidAlphaError, OrdinalUnderflowError, ParseError,
                     TheoryMismatchError, TranslimError)
from .instances import FiniteMod, parse_instance, standard_battery
from .ordinal import (OMEGA, compare, format_ordinal, left_subtract,
                      parse_ordinal, sample_points_below)
from .pwcseq import parse_pwc
from .instances import parse_theory
from .terms import AdditiveTheory, evaluate, format_term, parse_term, sum_term


def _emit(args, lines, payload) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print("\n".join(lines))


def _family(text: str, module, expect=None):
    fam = parse_pwc(text, module.parse_element)
    if expect is not None and fam.length != expect:
        raise ParseError(
            f"--seq covers {format_ordinal(fam.length)} but --alpha is "
            f"{format_ordinal(expect)}")
    return fam


# -- ordinal ---------------------------------------------------------------------


def _cmd_ordinal(args) -> int:
    need = {"add": 2, "sub": 2, "cmp": 2, "fmt": 1, "points": 1}[args.op]
    if len(args.operands) != need:
        raise ParseError(f"ordinal {args.op} takes {need} operand(s), "
                         f"got {len(args.operands)}")
    ords = [parse_ordinal(t) for t in args.operands]
    if args.op == "add":
        result = format_ordinal(ords[0] + ords[1])
    elif args.op == "sub":
        try:
            result = format_ordinal(left_subtract(ords[1], ords[0]))
        except OrdinalUnderflowError as exc:
            # the calculator checks nothing: a bad operand is a usage error
            raise ParseError(f"{exc.__class__.__name__}: {exc}") from None
    elif args.op == "cmp":
        result = {-1: "lt", 0: "eq", 1: "gt"}[compare(ords[0], ords[1])]
    elif args.op == "fmt":
        result = format_ordinal(ords[0])
    else:
        result = ", ".join(format_ordinal(p)
                           for p in sample_points_below(ords[0]))
    _emit(args, [result], {"command": "ordinal", "op": args.op,
                           "operands": args.operands, "result": result})
    return 0


# -- term ------------------------------------------------------------------------


def _term(text: str, theory, variable_limit=None):
    try:
        return parse_term(text, theory, variable_limit)
    except TheoryMismatchError as exc:
        # a term naming what its theory lacks is an input error
        raise ParseError(f"{exc.__class__.__name__}: {exc}") from None


def _cmd_term(args) -> int:
    if args.verb == "parse":
        theory = parse_theory(args.theory) if args.theory else None
        term = _term(args.expr, theory)
        text = format_term(term)
        _emit(args, [text], {"command": "term parse", "term": text,
                             "theory": args.theory})
        return 0
    module = parse_instance(args.module)
    term = _term(args.expr, module.theory)
    fam = _family(args.seq, module)
    value = module.format_element(evaluate(term, module, fam))
    _emit(args, [value], {"command": "term eval", "term": format_term(term),
                          "module": module.literal, "value": value})
    return 0


# -- limterm / sumterm -----------------------------------------------------------


def _cmd_limterm(args) -> int:
    alpha = parse_ordinal(args.alpha)
    if args.verb == "build":
        try:
            text = format_term(transfinite.build_lim_term(alpha))
        except InvalidAlphaError as exc:
            raise ParseError(f"{exc.__class__.__name__}: {exc}") from None
        _emit(args, [text], {"command": "limterm build", "term": text,
                             "alpha": args.alpha})
        return 0
    module = parse_instance(args.module)
    fam = _family(args.seq, module, expect=alpha)
    value = module.format_element(transfinite.lim_eval(module, fam))
    _emit(args, [value], {"command": "limterm eval", "alpha": args.alpha,
                          "module": module.literal, "value": value})
    return 0


def _cmd_sumterm(args) -> int:
    alpha = parse_ordinal(args.alpha)
    if args.verb == "build":
        text = format_term(sum_term(alpha))
        _emit(args, [text], {"command": "sumterm build", "term": text,
                             "alpha": args.alpha})
        return 0
    module = parse_instance(args.module)
    if args.verb == "eval":
        fam = _family(args.seq, module, expect=alpha)
        value = module.format_element(transfinite.sum_eval_from_lim(module, fam))
        _emit(args, [value], {"command": "sumterm eval", "alpha": args.alpha,
                              "module": module.literal, "value": value})
        return 0
    # restrict: sum a shorter family inside a longer index
    fam = _family(args.seq, module)
    if not fam.length <= alpha:
        raise ParseError(
            f"--seq covers {format_ordinal(fam.length)}, beyond --alpha "
            f"{format_ordinal(alpha)}")
    value = module.format_element(transfinite.restrict_sum(module, fam, alpha))
    _emit(args, [value], {"command": "sumterm restrict", "alpha": args.alpha,
                          "beta": format_ordinal(fam.length),
                          "module": module.literal, "value": value})
    return 0


# -- check -----------------------------------------------------------------------


def _check_trials(args):
    if args.trials < 0:
        raise ParseError("--trials must be at least 0")


def _positive_ordinal(text: str, flag: str):
    ordinal = parse_ordinal(text)
    if ordinal.is_zero:
        raise ParseError(f"{flag} must be an ordinal of at least 1")
    return ordinal


def _cmd_check_limterm(args) -> int:
    _check_trials(args)
    alpha = _positive_ordinal(args.alpha, "--alpha")
    modules = ([parse_instance(args.module)] if args.module
               else list(standard_battery()))
    term = transfinite.build_lim_term(alpha)
    reports = [transfinite.verify_limit_term(term, alpha, m,
                                             trials=args.trials,
                                             seed=args.seed)
               for m in modules]
    passed = all(r.passed for r in reports)
    lines = [f"seed: {args.seed}", f"alpha: {args.alpha}",
             f"term: {format_term(term)}"]
    for r in reports:
        if r.passed:
            lines.append(f"  {r.instance}: pass ({r.trials} trials)")
        else:
            lines.append(f"  {r.instance}: FAIL")
            lines.append("    witness: " + json.dumps(r.witness,
                                                      sort_keys=True))
    ok_n = sum(1 for r in reports if r.passed)
    lines.append(f"check limterm: {'PASS' if passed else 'FAIL'} "
                 f"({ok_n}/{len(reports)} instances)")
    _emit(args, lines, {"command": "check limterm", "seed": args.seed,
                        "alpha": args.alpha, "term": format_term(term),
                        "reports": [r.to_json() for r in reports],
                        "passed": passed})
    return 0 if passed else 1


def _cmd_check_ab5(args) -> int:
    if args.ring is not None and args.mod is not None \
            and args.ring != args.mod:
        raise ParseError("--ring and --mod disagree")
    modulus = args.ring if args.ring is not None else args.mod
    if modulus is None:
        raise ParseError("one of --ring or --mod is required")
    if modulus < 1:
        raise ParseError("the modulus must be at least 1")
    _check_trials(args)
    index = _positive_ordinal(args.set, "--set")
    theory = AdditiveTheory(modulus, args.theory == "inf-add")
    if theory.infinitary and not (index == OMEGA or index.is_finite):
        raise ParseError("--set must be finite or w under inf-add; the "
                         "reachability evidence runs on a concrete system")
    row, evidence = ab5check.audit_point(theory, index, trials=args.trials,
                                         seed=args.seed, section_trials=12)

    def word(b):
        return "holds" if b else "fails"

    lines = [f"seed: {args.seed}", f"theory: {theory.literal}",
             f"index: {format_ordinal(index)}",
             f"  limit terms:    {word(row.cond_limits)}",
             f"  reachability:   {word(row.cond_reach)}",
             f"  diagonal:       {word(row.cond_diagonal)}",
             f"equivalence: {'PASS' if row.agree else 'FAIL'} "
             f"(conditions {'agree' if row.agree else 'disagree'})"]
    _emit(args, lines, {"command": "check ab5", "seed": args.seed,
                        "theory": theory.literal,
                        "index": format_ordinal(index),
                        "conditions": {"limits": row.cond_limits,
                                       "reach": row.cond_reach,
                                       "diagonal": row.cond_diagonal},
                        "agree": row.agree,
                        "details": {k: v.to_json()
                                    for k, v in evidence.items()}})
    return 0 if row.agree else 1


def _cmd_check_refute(args) -> int:
    if args.mod < 1:
        raise ParseError("the modulus must be at least 1")
    alpha = _positive_ordinal(args.alpha, "--alpha")
    theory = AdditiveTheory(args.mod, infinitary=False)
    verdict = transfinite.refute_limit_term_finitary(args.mod, alpha)
    lines = [f"seed: {args.seed}", f"theory: {theory.literal}",
             f"alpha: {format_ordinal(alpha)}"]
    payload = {"command": "check refute", "seed": args.seed,
               "theory": theory.literal, "alpha": format_ordinal(alpha),
               "verdict": verdict.to_json()}
    ok = True
    if verdict.exists:
        lines.append("verdict: a limit term exists")
        lines.append(f"witness: {format_term(verdict.witness_term)}")
        rep = transfinite.verify_limit_term(
            verdict.witness_term, alpha,
            FiniteMod(args.mod, (args.mod,), infinitary=False),
            trials=50, seed=args.seed)
        ok = rep.passed
        lines.append(f"witness check: {'pass' if ok else 'FAIL'}")
        payload["witness_check"] = rep.to_json()
    else:
        lines.append("verdict: no limit term exists")
        if args.term:
            term = _term(args.term, theory, alpha)
            witness = verdict.challenge(term)
            ok, details = transfinite.validate_refutation(witness, term)
            lines.append(f"challenged: {format_term(term)}")
            lines.append("certificate: " + json.dumps(witness.to_json(),
                                                      sort_keys=True))
            lines.append(f"certificate check: {'pass' if ok else 'FAIL'}")
            payload["challenge"] = {"term": format_term(term),
                                    "certificate": witness.to_json(),
                                    "valid": ok, "details": details}
    _emit(args, lines, payload)
    return 0 if ok else 1


# -- diagram ---------------------------------------------------------------------


def _load_system(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read diagram file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"diagram file is not JSON: {exc}") from exc
    return diagrams.system_from_json(data)


def _cmd_diagram(args) -> int:
    if args.verb == "sample":
        if args.mod < 1:
            raise ParseError("the modulus must be at least 1")
        rng = random.Random(args.seed)
        system = sampling.random_system(rng, args.mod)
        print(f"seed: {args.seed}", file=sys.stderr)
        print(json.dumps(diagrams.system_to_json(system), indent=2,
                         sort_keys=True))
        return 0
    system = _load_system(args.file)
    lobj = diagrams.limit_object(system)
    levels = " <- ".join(lv.literal for lv in system.prefix)
    if args.verb == "check":
        lines = [f"index: {format_ordinal(system.index)}",
                 f"theory: {system.theory.literal}",
                 f"levels: {levels}",
                 f"tail: {system.tail or '-'}",
                 f"limit: {len(lobj.elements())} threads, "
                 f"depth {lobj.depth}",
                 f"colimit: {diagrams.colimit_object(system).literal}",
                 "diagram check: PASS"]
        _emit(args, lines, {"command": "diagram check",
                            "index": format_ordinal(system.index),
                            "theory": system.theory.literal,
                            "levels": [lv.literal for lv in system.prefix],
                            "tail": system.tail,
                            "limit_size": len(lobj.elements()),
                            "limit_depth": lobj.depth,
                            "colimit": diagrams.colimit_object(system).literal,
                            "ok": True})
        return 0
    # limit: list the threads over the prefix levels
    height = system.height
    threads = []
    for x in sorted(lobj.elements()):
        coords = [system.level(j).format_element(lobj.coordinate(x, j))
                  for j in range(height + 1)]
        threads.append(coords)
    lines = [f"limit: {len(threads)} threads, depth {lobj.depth}"]
    lines += ["  " + " <- ".join(coords) for coords in threads]
    _emit(args, lines, {"command": "diagram limit",
                        "depth": lobj.depth, "threads": threads})
    return 0


# -- suite -----------------------------------------------------------------------


def _cmd_suite(args) -> int:
    reports = suites.run_suite(args.name, args.seed)
    ok = all(r.ok for r in reports)
    lines = []
    for r in reports:
        lines.append(r.render_text())
        lines.append("")
    lines.append(f"suite run: {'PASS' if ok else 'FAIL'}")
    _emit(args, lines, {"command": "suite run", "seed": args.seed,
                        "suites": [r.to_json() for r in reports], "ok": ok})
    return 0 if ok else 1


# -- parser ----------------------------------------------------------------------


def _add_json(p) -> None:
    p.add_argument("--json", action="store_true",
                   help="emit a JSON report instead of text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="translim",
        description="ordinal-indexed terms, limits, and summation checks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ordinal", help="ordinal calculator")
    p.add_argument("op", choices=("add", "sub", "cmp", "fmt", "points"))
    p.add_argument("operands", nargs="+", metavar="ORD")
    _add_json(p)
    p.set_defaults(fn=_cmd_ordinal)

    p = sub.add_parser("term", help="parse or evaluate a term")
    tv = p.add_subparsers(dest="verb", required=True)
    q = tv.add_parser("parse")
    q.add_argument("expr")
    q.add_argument("--theory", help='e.g. "add-inf mod 2"')
    _add_json(q)
    q.set_defaults(fn=_cmd_term)
    q = tv.add_parser("eval")
    q.add_argument("expr")
    q.add_argument("--module", required=True, help='e.g. Z/4 or "Z/2 x Z/4"')
    q.add_argument("--seq", required=True,
                   help='assignment, e.g. "[0,w)->1"')
    _add_json(q)
    q.set_defaults(fn=_cmd_term)

    p = sub.add_parser("limterm", help="canonical limit term")
    tv = p.add_subparsers(dest="verb", required=True)
    q = tv.add_parser("build")
    q.add_argument("--alpha", required=True)
    _add_json(q)
    q.set_defaults(fn=_cmd_limterm)
    q = tv.add_parser("eval")
    q.add_argument("--alpha", required=True)
    q.add_argument("--module", required=True)
    q.add_argument("--seq", required=True)
    _add_json(q)
    q.set_defaults(fn=_cmd_limterm)

    p = sub.add_parser("sumterm", help="canonical summation term")
    tv = p.add_subparsers(dest="verb", required=True)
    q = tv.add_parser("build")
    q.add_argument("--alpha", required=True)
    _add_json(q)
    q.set_defaults(fn=_cmd_sumterm)
    for verb in ("eval", "restrict"):
        q = tv.add_parser(verb)
        q.add_argument("--alpha", required=True)
        q.add_argument("--module", required=True)
        q.add_argument("--seq", required=True)
        _add_json(q)
        q.set_defaults(fn=_cmd_sumterm)

    p = sub.add_parser("check", help="named verification runs")
    tv = p.add_subparsers(dest="target", required=True)
    q = tv.add_parser("limterm", help="limit-term laws over the battery")
    q.add_argument("--alpha", required=True)
    q.add_argument("--module", help="restrict to one instance literal")
    q.add_argument("--trials", type=int, default=200)
    q.add_argument("--seed", type=int, default=0)
    _add_json(q)
    q.set_defaults(fn=_cmd_check_limterm)
    q = tv.add_parser("ab5", help="three-condition equivalence at one point")
    q.add_argument("--ring", type=int, help="modulus of the scalar ring")
    q.add_argument("--mod", type=int, help="synonym for --ring")
    q.add_argument("--theory", choices=("inf-add", "fin-add"),
                   default="inf-add")
    q.add_argument("--set", default="w", help="index ordinal (default w)")
    q.add_argument("--trials", type=int, default=100)
    q.add_argument("--seed", type=int, default=0)
    _add_json(q)
    q.set_defaults(fn=_cmd_check_ab5)
    q = tv.add_parser("refute", help="finitary limit-term decision")
    q.add_argument("--mod", type=int, required=True)
    q.add_argument("--alpha", default="w")
    q.add_argument("--term", help="candidate term to defeat")
    q.add_argument("--seed", type=int, default=0)
    _add_json(q)
    q.set_defaults(fn=_cmd_check_refute)

    p = sub.add_parser("diagram", help="inverse-system files")
    tv = p.add_subparsers(dest="verb", required=True)
    q = tv.add_parser("check")
    q.add_argument("file")
    _add_json(q)
    q.set_defaults(fn=_cmd_diagram)
    q = tv.add_parser("limit")
    q.add_argument("file")
    _add_json(q)
    q.set_defaults(fn=_cmd_diagram)
    q = tv.add_parser("sample")
    q.add_argument("--mod", type=int, required=True)
    q.add_argument("--seed", type=int, default=0)
    q.set_defaults(fn=_cmd_diagram)

    p = sub.add_parser("suite", help="run the named check suites")
    tv = p.add_subparsers(dest="verb", required=True)
    q = tv.add_parser("run")
    q.add_argument("name", choices=("all", "transfinite", "diagrams", "ab5"))
    q.add_argument("--seed", type=int, default=0)
    _add_json(q)
    q.set_defaults(fn=_cmd_suite)

    return parser


# One parser per process, built on first use rather than at import:
# argparse keeps no per-parse state on the parser, and help text reads the
# terminal width when it is formatted, not when the parser is built.
# build_parser itself still returns a fresh parser on every call.
@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 for --help
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print(f"error: input nests deeper than the recursion limit "
              f"({sys.getrecursionlimit()})", file=sys.stderr)
        return 2
    except TranslimError as exc:
        print(f"check failed: {exc.__class__.__name__}: {exc}",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
