"""Command-line front end.

One binary with subcommands: an ordinal calculator, a term evaluator,
limit/summation term runners, named checks, diagram file tooling, and the
suite runner.  Each leaf command is one row of COMMANDS, which builds the
parser, names the handler and lists the library errors that are usage
errors for that command.  Output is plain text unless --json is given;
identical argv plus seed produce identical bytes.  Exit codes: 0 success,
1 check failure, 2 usage or parse error (input nested past the recursion
limit, a ResourceLimitError and the row's usage errors included).

The module imports only the parsers and the module layer; a handler that
needs the evaluators, diagrams, sampling, the audit or the suites imports
them when it runs, so `translim ordinal` never reads them.

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
from typing import Callable, NamedTuple

from .errors import (InfiniteCarrierError, InvalidAlphaError,
                     OrdinalUnderflowError, ParseError, ResourceLimitError,
                     TheoryMismatchError, TranslimError, UnboundVariableError,
                     nesting_message)
from .instances import (FiniteMod, parse_instance, parse_theory,
                        standard_battery)
from .ordinal import (OMEGA, compare, format_ordinal, left_subtract,
                      parse_ordinal, sample_points_below)
from .pwcseq import parse_pwc
from .terms import AdditiveTheory, evaluate, format_term, parse_term, sum_term


def _emit(args, lines, payload) -> None:
    if args.json:
        payload = {"command": " ".join(args.row.path), **payload}
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print("\n".join(lines))


# -- ordinal ---------------------------------------------------------------------

# op -> (operand count, result text from the parsed operands)
_ORDINAL_OPS = {
    "add": (2, lambda a, b: format_ordinal(a + b)),
    "sub": (2, lambda a, b: format_ordinal(left_subtract(b, a))),
    "cmp": (2, lambda a, b: {-1: "lt", 0: "eq", 1: "gt"}[compare(a, b)]),
    "fmt": (1, format_ordinal),
    "points": (1, lambda a: ", ".join(format_ordinal(p)
                                      for p in sample_points_below(a))),
}


def _cmd_ordinal(args) -> int:
    need, op = _ORDINAL_OPS[args.op]
    if len(args.operands) != need:
        raise ParseError(f"ordinal {args.op} takes {need} operand(s), "
                         f"got {len(args.operands)}")
    result = op(*[parse_ordinal(t) for t in args.operands])
    _emit(args, [result], {"op": args.op, "operands": args.operands,
                           "result": result})
    return 0


# -- term / limterm / sumterm ----------------------------------------------------


def _cmd_term_parse(args) -> int:
    theory = parse_theory(args.theory) if args.theory else None
    text = format_term(parse_term(args.expr, theory))
    _emit(args, [text], {"term": text, "theory": args.theory})
    return 0


def _cmd_term_eval(args) -> int:
    module = parse_instance(args.module)
    term = parse_term(args.expr, module.theory)
    fam = parse_pwc(args.seq, module.parse_element)
    value = module.format_element(evaluate(term, module, fam))
    _emit(args, [value], {"term": format_term(term),
                          "module": module.literal, "value": value})
    return 0


def _cmd_limterm_build(args) -> int:
    from . import transfinite
    text = format_term(transfinite.build_lim_term(parse_ordinal(args.alpha)))
    _emit(args, [text], {"term": text, "alpha": args.alpha})
    return 0


def _cmd_sumterm_build(args) -> int:
    text = format_term(sum_term(parse_ordinal(args.alpha)))
    _emit(args, [text], {"term": text, "alpha": args.alpha})
    return 0


def _eval_family(args, evaluator: str) -> int:
    from . import transfinite
    alpha = parse_ordinal(args.alpha)
    module = parse_instance(args.module)
    fam = parse_pwc(args.seq, module.parse_element)
    if fam.length != alpha:
        raise ParseError(
            f"--seq covers {format_ordinal(fam.length)} but --alpha is "
            f"{format_ordinal(alpha)}")
    value = module.format_element(
        getattr(transfinite, evaluator)(module, fam))
    _emit(args, [value], {"alpha": args.alpha, "module": module.literal,
                          "value": value})
    return 0


def _cmd_sumterm_restrict(args) -> int:
    from . import transfinite
    # sum a shorter family inside a longer index
    alpha = parse_ordinal(args.alpha)
    module = parse_instance(args.module)
    fam = parse_pwc(args.seq, module.parse_element)
    if not fam.length <= alpha:
        raise ParseError(
            f"--seq covers {format_ordinal(fam.length)}, beyond --alpha "
            f"{format_ordinal(alpha)}")
    value = module.format_element(transfinite.restrict_sum(module, fam, alpha))
    _emit(args, [value], {"alpha": args.alpha,
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
    from . import transfinite
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
    _emit(args, lines, {"seed": args.seed, "alpha": args.alpha,
                        "term": format_term(term),
                        "reports": [r.to_json() for r in reports],
                        "passed": passed})
    return 0 if passed else 1


def _cmd_check_ab5(args) -> int:
    from . import ab5check
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
    _emit(args, lines, {"seed": args.seed, "theory": theory.literal,
                        "index": format_ordinal(index),
                        "conditions": {"limits": row.cond_limits,
                                       "reach": row.cond_reach,
                                       "diagonal": row.cond_diagonal},
                        "agree": row.agree,
                        "details": {k: v.to_json()
                                    for k, v in evidence.items()}})
    return 0 if row.agree else 1


def _cmd_check_refute(args) -> int:
    from . import transfinite
    if args.mod < 1:
        raise ParseError("the modulus must be at least 1")
    alpha = _positive_ordinal(args.alpha, "--alpha")
    theory = AdditiveTheory(args.mod, infinitary=False)
    verdict = transfinite.refute_limit_term_finitary(args.mod, alpha)
    lines = [f"seed: {args.seed}", f"theory: {theory.literal}",
             f"alpha: {format_ordinal(alpha)}"]
    payload = {"seed": args.seed, "theory": theory.literal,
               "alpha": format_ordinal(alpha), "verdict": verdict.to_json()}
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
            term = parse_term(args.term, theory, alpha)
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
    from . import diagrams
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read diagram file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"diagram file is not JSON: {exc}") from exc
    return diagrams.system_from_json(data)


def _cmd_diagram_sample(args) -> int:
    from . import diagrams, sampling
    if args.mod < 1:
        raise ParseError("the modulus must be at least 1")
    rng = random.Random(args.seed)
    system = sampling.random_system(rng, args.mod)
    print(f"seed: {args.seed}", file=sys.stderr)
    print(json.dumps(diagrams.system_to_json(system), indent=2,
                     sort_keys=True))
    return 0


def _cmd_diagram_check(args) -> int:
    from . import diagrams
    system = _load_system(args.file)
    lobj = diagrams.limit_object(system)
    levels = [lv.literal for lv in system.prefix]
    size = len(lobj.elements())
    colimit = diagrams.colimit_object(system).literal
    lines = [f"index: {format_ordinal(system.index)}",
             f"theory: {system.theory.literal}",
             f"levels: {' <- '.join(levels)}",
             f"tail: {system.tail or '-'}",
             f"limit: {size} threads, depth {lobj.depth}",
             f"colimit: {colimit}",
             "diagram check: PASS"]
    _emit(args, lines, {"index": format_ordinal(system.index),
                        "theory": system.theory.literal, "levels": levels,
                        "tail": system.tail, "limit_size": size,
                        "limit_depth": lobj.depth, "colimit": colimit,
                        "ok": True})
    return 0


def _cmd_diagram_limit(args) -> int:
    from . import diagrams
    # list the threads over the prefix levels, and over w one level past
    # them, where the tail takes over; a finite index has no level past
    system = _load_system(args.file)
    lobj = diagrams.limit_object(system)
    shown = system.height + 1 if system.index == OMEGA else system.height
    threads = [[system.level(j).format_element(lobj.coordinate(x, j))
                for j in range(shown)]
               for x in sorted(lobj.elements())]
    lines = [f"limit: {len(threads)} threads, depth {lobj.depth}"]
    lines += ["  " + " <- ".join(coords) for coords in threads]
    _emit(args, lines, {"depth": lobj.depth, "threads": threads})
    return 0


# -- suite -----------------------------------------------------------------------


def _cmd_suite(args) -> int:
    from . import suites
    reports = suites.run_suite(args.name, args.seed)
    ok = all(r.ok for r in reports)
    lines = []
    for r in reports:
        lines.append(r.render_text())
        lines.append("")
    lines.append(f"suite run: {'PASS' if ok else 'FAIL'}")
    _emit(args, lines, {"seed": args.seed,
                        "suites": [r.to_json() for r in reports], "ok": ok})
    return 0 if ok else 1


# -- command table ---------------------------------------------------------------


class Command(NamedTuple):
    """One leaf command: its argv path, its handler, its arguments as
    (flags, add_argument keywords) pairs, its help text, and the library
    errors that mean bad input to it (exit 2) rather than a failed check
    (exit 1)."""

    path: tuple
    handler: Callable
    args: tuple
    help: str | None = None
    usage_errors: tuple = ()


def _arg(*flags, **spec):
    return flags, spec


_JSON = _arg("--json", action="store_true",
             help="emit a JSON report instead of text")
_SEED = _arg("--seed", type=int, default=0)
_ALPHA = _arg("--alpha", required=True)
_FAMILY = (_ALPHA, _arg("--module", required=True),
           _arg("--seq", required=True))

# command group -> (its help, the name argparse gives its missing verb)
_GROUPS = {"term": ("parse or evaluate a term", "verb"),
           "limterm": ("canonical limit term", "verb"),
           "sumterm": ("canonical summation term", "verb"),
           "check": ("named verification runs", "target"),
           "diagram": ("inverse-system files", "verb"),
           "suite": ("run the named check suites", "verb")}

COMMANDS = (
    Command(("ordinal",), _cmd_ordinal,
            (_arg("op", choices=tuple(_ORDINAL_OPS)),
             _arg("operands", nargs="+", metavar="ORD"), _JSON),
            help="ordinal calculator", usage_errors=(OrdinalUnderflowError,)),
    Command(("term", "parse"), _cmd_term_parse,
            (_arg("expr"), _arg("--theory", help='e.g. "add-inf mod 2"'),
             _JSON),
            usage_errors=(TheoryMismatchError,)),
    Command(("term", "eval"), _cmd_term_eval,
            (_arg("expr"),
             _arg("--module", required=True, help='e.g. Z/4 or "Z/2 x Z/4"'),
             _arg("--seq", required=True, help='assignment, e.g. "[0,w)->1"'),
             _JSON),
            usage_errors=(TheoryMismatchError, UnboundVariableError)),
    Command(("limterm", "build"), _cmd_limterm_build, (_ALPHA, _JSON),
            usage_errors=(InvalidAlphaError,)),
    Command(("limterm", "eval"),
            lambda args: _eval_family(args, "lim_eval"),
            (*_FAMILY, _JSON),
            usage_errors=(TheoryMismatchError,)),
    Command(("sumterm", "build"), _cmd_sumterm_build, (_ALPHA, _JSON)),
    Command(("sumterm", "eval"),
            lambda args: _eval_family(args, "sum_eval_from_lim"),
            (*_FAMILY, _JSON),
            usage_errors=(TheoryMismatchError,)),
    Command(("sumterm", "restrict"), _cmd_sumterm_restrict, (*_FAMILY, _JSON),
            usage_errors=(TheoryMismatchError,)),
    Command(("check", "limterm"), _cmd_check_limterm,
            (_ALPHA, _arg("--module", help="restrict to one instance literal"),
             _arg("--trials", type=int, default=200), _SEED, _JSON),
            help="limit-term laws over the battery",
            usage_errors=(InfiniteCarrierError, TheoryMismatchError)),
    Command(("check", "ab5"), _cmd_check_ab5,
            (_arg("--ring", type=int, help="modulus of the scalar ring"),
             _arg("--mod", type=int, help="synonym for --ring"),
             _arg("--theory", choices=("inf-add", "fin-add"),
                  default="inf-add"),
             _arg("--set", default="w", help="index ordinal (default w)"),
             _arg("--trials", type=int, default=100), _SEED, _JSON),
            help="three-condition equivalence at one point"),
    Command(("check", "refute"), _cmd_check_refute,
            (_arg("--mod", type=int, required=True),
             _arg("--alpha", default="w"),
             _arg("--term", help="candidate term to defeat"), _SEED, _JSON),
            help="finitary limit-term decision",
            usage_errors=(TheoryMismatchError, UnboundVariableError)),
    Command(("diagram", "check"), _cmd_diagram_check, (_arg("file"), _JSON)),
    Command(("diagram", "limit"), _cmd_diagram_limit, (_arg("file"), _JSON)),
    Command(("diagram", "sample"), _cmd_diagram_sample,
            (_arg("--mod", type=int, required=True), _SEED)),
    Command(("suite", "run"), _cmd_suite,
            (_arg("name", choices=("all", "transfinite", "diagrams", "ab5")),
             _SEED, _JSON)),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="translim",
        description="ordinal-indexed terms, limits, and summation checks")
    top = parser.add_subparsers(dest="command", required=True)
    verbs = {(): top}  # command group -> the subparsers of its verbs
    for row in COMMANDS:
        group = row.path[:-1]
        if group not in verbs:
            help_text, dest = _GROUPS[group[0]]
            verbs[group] = top.add_parser(
                group[0], help=help_text).add_subparsers(dest=dest,
                                                         required=True)
        # argparse lists a command in its group's help only if given help
        spec = {"help": row.help} if row.help else {}
        p = verbs[group].add_parser(row.path[-1], **spec)
        for flags, spec in row.args:
            p.add_argument(*flags, **spec)
        p.set_defaults(row=row)
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
        return args.row.handler(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:  # a deep term built in code, not read from text
        print(f"error: {nesting_message()}", file=sys.stderr)
        return 2
    except (ResourceLimitError, *args.row.usage_errors) as exc:
        print(f"error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return 2
    except TranslimError as exc:
        print(f"check failed: {exc.__class__.__name__}: {exc}",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
