"""Workload generators, input builders and verdicts for the translim benchmark.

Each workload is a fixed list of cases.  `generate` draws the cases from the
seed in plain Python and computes every expected answer itself (the final
piece's value, an integer sum, a closed-form limit size and depth, or the
golden bytes); no expected answer comes from a translim route.  The seed
changes values, offsets and multipliers, never the shape of a case, so the
cost of a pass barely depends on the seed.  `build` turns the cases into
translim inputs through the public parsers and constructors, and `verdict`
runs one case and compares it with its expected answer.

translim is reached through module attributes at call time, never through
names bound at import, so the tracer's rebinding is seen here as well.
"""

from __future__ import annotations

import contextlib
import io
import random
import zlib
from pathlib import Path

WORKLOADS = ("limits", "sums", "systems", "cli")

# standard_battery(): Z/2, Z/3, Z/4, Z/2 x Z/2, Z/6, as (literal, orders)
BATTERY = (("Z/2", (2,)), ("Z/3", (3,)), ("Z/4", (4,)),
           ("Z/2 x Z/2", (2, 2)), ("Z/6", (6,)))

DIVERGENT = "divergent"

# The golden argv lists of the CLI acceptance criterion, with their files.
GOLDEN_RUNS = (
    (("ordinal", "points", "w*2"), "ordinal_points_w2.txt"),
    (("limterm", "build", "--alpha", "w+2"), "limterm_build_wp2.txt"),
    (("sumterm", "build", "--alpha", "w"), "sumterm_build_w.txt"),
    (("term", "eval", "(+ x0 (scal 2 x1))", "--module", "Z/4",
      "--seq", "[0,w)->1", "--json"), "term_eval_z4.json"),
    (("check", "limterm", "--alpha", "w", "--module", "Z/4",
      "--trials", "20", "--seed", "7"), "check_limterm_w_z4_seed7.txt"),
    (("check", "limterm", "--alpha", "w+1", "--trials", "10"),
     "check_limterm_battery_wp1.txt"),
    (("check", "ab5", "--ring", "2"), "check_ab5_inf_w_mod2.txt"),
    (("check", "ab5", "--ring", "2", "--theory", "fin-add"),
     "check_ab5_fin_w_mod2.txt"),
    (("check", "refute", "--mod", "2", "--alpha", "w",
      "--term", "(+ x0 x1)"), "check_refute_mod2_w_challenge.txt"),
    (("diagram", "sample", "--mod", "4", "--seed", "3"),
     "diagram_sample_mod4_seed3.json"),
    (("suite", "run", "all"), "suite_run_all_seed0.txt"),
)


# -- plain-Python element arithmetic for the references -----------------------


def _elements(orders):
    out = [()]
    for m in orders:
        out = [e + (x,) for e in out for x in range(m)]
    return out


def _fmt_element(x):
    return str(x[0]) if len(x) == 1 else "(" + ",".join(map(str, x)) + ")"


def _ordinal_text(omega_coeffs, finite):
    """CNF text of w^2*c2 + w*c1 + finite from omega_coeffs = (c2, c1)."""
    c2, c1 = omega_coeffs
    parts = []
    if c2:
        parts.append("w^2" if c2 == 1 else f"w^2*{c2}")
    if c1:
        parts.append("w" if c1 == 1 else f"w*{c1}")
    if finite or not parts:
        parts.append(str(finite))
    return "+".join(parts)


def _pwc_text(bounds, values):
    return "; ".join(f"[{lo},{hi}) -> {_fmt_element(v)}"
                     for lo, hi, v in zip(bounds, bounds[1:], values))


# -- generators ---------------------------------------------------------------


def _piece_values(rng, orders, k):
    """k piece values whose steps v[i] - v[i-1] (v[-1] = 0) are nonzero and
    differ from the step before.

    Then neither the family nor any difference family the recursion builds
    merges neighbouring pieces (over Z/2, with one nonzero step, they always
    merge), so a case's cost depends on k and not on the seed.
    """
    nonzero = [e for e in _elements(orders) if any(e)]
    values, step, value = [], None, tuple(0 for _ in orders)
    for _ in range(k):
        step = rng.choice([d for d in nonzero if d != step] or nonzero)
        value = tuple((a + b) % m for a, b, m in zip(value, step, orders))
        values.append(value)
    return values


def _limit_cases(rng):
    cases = []
    shapes = [("tuple", k) for k in range(2, 14)]
    shapes += [("transfinite", k) for k in range(2, 7)]
    for i, (kind, k) in enumerate(shapes):
        literal, orders = BATTERY[i % len(BATTERY)]
        values = _piece_values(rng, orders, k)
        if kind == "tuple":
            bounds = [str(j) for j in range(k + 1)]
        else:
            # breakpoints w*i+j: every piece is infinite
            bounds = (["0"] + [_ordinal_text((0, m), rng.randrange(10))
                               for m in range(1, k)] + [f"w*{k}"])
        cases.append({"id": f"{kind}-k{k}", "size": k, "module": literal,
                      "family": _pwc_text(bounds, values),
                      "expected": values[-1]})
    return cases


SUM_SIZES = (100, 200, 400, 800, 1600, 3000)
SUM_SHAPES = ((0, 0), (0, 1), (1, 3))  # n, w+n, w^2+w*3+n


def _support_family(rng, orders, omega_coeffs, n, points):
    """Bounds and values of a family nonzero at `points` chosen positions.

    One point may sit in the transfinite part; the others sit in fixed
    fifths of the finite tail with a seeded offset, so where the peeling
    meets them hardly depends on the seed.
    """
    nonzero = [e for e in _elements(orders) if any(e)]
    positions = []
    if omega_coeffs != (0, 0) and points == 3:
        positions.append((omega_coeffs[0], 0, rng.randrange(1, 50)))
    for slot in range(points - len(positions)):
        lo = n * (2 * slot + 1) // 6
        positions.append((omega_coeffs[0], omega_coeffs[1],
                          lo + rng.randrange(n // 100)))
    positions.sort()
    zero = tuple(0 for _ in orders)
    bounds, values = ["0"], []
    for c2, c1, j in positions:
        at = _ordinal_text((c2, c1), j)
        nxt = _ordinal_text((c2, c1), j + 1)
        if at != bounds[-1]:
            bounds.append(at)
            values.append(zero)
        bounds.append(nxt)
        values.append(rng.choice(nonzero))
    length = _ordinal_text(omega_coeffs, n)
    if bounds[-1] != length:
        bounds.append(length)
        values.append(zero)
    total = tuple(sum(v[c] for v in values) % m
                  for c, m in enumerate(orders))
    return bounds, values, total


def _sum_cases(rng):
    cases = []
    i = 0
    for n in SUM_SIZES:
        for omega_coeffs in SUM_SHAPES:
            literal, orders = BATTERY[i % len(BATTERY)]
            points = 1 + i % 3
            bounds, values, total = _support_family(rng, orders,
                                                    omega_coeffs, n, points)
            cases.append({"id": f"sum-{_ordinal_text(omega_coeffs, 'n')}"
                                f"-n{n}",
                          "size": n, "module": literal,
                          "family": _pwc_text(bounds, values),
                          "alpha": bounds[-1],
                          "bigger": bounds[-1] + "+w+7",
                          "expected": total})
            i += 1
    # constant nonzero on an infinite interval: every route must refuse
    for omega_coeffs, n in (((0, 1), 0), ((0, 2), 100), ((1, 3), 100)):
        literal, orders = BATTERY[i % len(BATTERY)]
        v = rng.choice([e for e in _elements(orders) if any(e)])
        zero = tuple(0 for _ in orders)
        start = rng.randrange(1, 10)
        length = _ordinal_text(omega_coeffs, n)
        bounds = ["0", str(start), _ordinal_text((omega_coeffs[0], 1), 0)]
        values = [zero, v]
        if bounds[-1] != length:
            bounds.append(length)
            values.append(zero)
        cases.append({"id": f"divergent-{length}", "size": n,
                      "module": literal, "family": _pwc_text(bounds, values),
                      "alpha": length, "bigger": length + "+w+7",
                      "expected": DIVERGENT})
        i += 1
    return cases


def _tower_depth(exponents, s):
    """Image-chain length of x -> 2^s*u*x on prod Z/2^a (s = 0: a unit)."""
    if s == 0:
        return 0
    return max(-(-a // s) for a in exponents)  # ceil(a / s)


def _tower_size(exponents, s):
    return 2 ** sum(exponents) if s == 0 else 1


# (kind, exponents of the level Z/2^a x ..., shift s of the multiplier 2^s*u)
# "tower": levels Q <- M <- M, the last map repeated; limit and depth.
# "morphism": the levelwise quotient of the M tower onto the Q tower.
# "section": Z/2^(a-2) <- Q <- M <- M, audited by lim_to_prod_section_check.
SYSTEM_SHAPES = (
    ("tower", (3,), 1), ("tower", (4,), 0), ("tower", (5,), 2),
    ("tower", (6,), 1), ("tower", (7,), 2), ("tower", (4, 4), 1),
    ("tower", (2, 2), 0), ("tower", (6,), 0),
    ("morphism", (4,), 1), ("morphism", (5,), 0), ("morphism", (2, 2), 0),
    ("section", (3,), 0), ("section", (2, 2), 1),
)


def _system_cases(rng):
    cases = []
    for index, (kind, exps, s) in enumerate(SYSTEM_SHAPES):
        u = rng.choice((1, 3, 5, 7))
        quotient = tuple(a - 1 for a in exps)
        case = {"id": f"{kind}-{'x'.join(f'Z{2 ** a}' for a in exps)}-s{s}",
                "size": 2 ** sum(exps), "kind": kind,
                "exponents": list(exps), "multiplier": (2 ** s) * u,
                # the section audit's own trials are part of the case's
                # shape: their junk prefixes set its cost
                "seed": index}
        if kind == "morphism":
            case["expected"] = {"limit_epi": True,
                                "source_depth": _tower_depth(exps, s),
                                "target_depth": _tower_depth(quotient, s)}
        else:
            case["expected"] = {"size": _tower_size(exps, s),
                                "depth": _tower_depth(exps, s)}
            if kind == "section":
                case["expected"]["section"] = True
        cases.append(case)
    return cases


def _cli_cases(rng):
    # The argv lists are the golden ones, so the seed has nothing to draw;
    # their order stays fixed too, because a command's time varies with what
    # ran before it.
    return [{"id": golden, "size": golden, "argv": list(argv),
             "golden": golden} for argv, golden in GOLDEN_RUNS]


_GENERATORS = {"limits": _limit_cases, "sums": _sum_cases,
               "systems": _system_cases, "cli": _cli_cases}


def generate(workload: str, seed: int) -> list:
    """The workload's case list with expected answers, from the seed alone."""
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))


# -- builders -----------------------------------------------------------------


def _build_family_case(tl, case):
    module = tl.parse_instance(case["module"])
    fam = tl.parse_pwc(case["family"], module.parse_element)
    built = dict(case, module=module, family=fam, alpha=fam.length)
    if "bigger" in case:
        built["bigger"] = tl.parse_ordinal(case["bigger"])
    if case["expected"] != DIVERGENT:
        built["expected"] = tuple(case["expected"])
    return built


def _build_system_case(tl, case):
    exps = case["exponents"]
    modulus = 2 ** max(exps)
    level = tl.FiniteMod(modulus, tuple(2 ** a for a in exps))
    quotient = tl.FiniteMod(modulus, tuple(2 ** (a - 1) for a in exps))
    lower = tl.FiniteMod(modulus, tuple(2 ** max(a - 2, 0) for a in exps))
    basis = [tuple(int(i == j) for j in range(len(exps)))
             for i in range(len(exps))]
    return dict(case, level=level, quotient=quotient, lower=lower,
                basis=basis)


def build(workload: str, cases: list, root) -> list:
    """translim inputs for the cases; cli reads the golden bytes from root."""
    import translim as tl
    if workload == "cli":
        import translim.cli  # noqa: F401  (binds tl.cli for the verdicts)
        golden = Path(root) / "tests" / "golden"
        return [dict(c, golden=(golden / c["golden"]).read_text(
            encoding="utf-8")) for c in cases]
    if workload == "systems":
        return [_build_system_case(tl, c) for c in cases]
    return [_build_family_case(tl, c) for c in cases]


# -- verdicts -----------------------------------------------------------------


def _limits_verdict(tl, case):
    module, fam, alpha = case["module"], case["family"], case["alpha"]
    routes = (tl.transfinite.lim_eval(module, fam),
              tl.transfinite.lim_value(module, fam),
              tl.terms.evaluate(tl.transfinite.build_lim_term(alpha), module,
                                fam))
    return all(r == case["expected"] for r in routes), routes


def _sum_routes(tl, case):
    module, fam, alpha = case["module"], case["family"], case["alpha"]
    return (lambda: tl.transfinite.sum_eval_from_lim(module, fam),
            lambda: module.infinitary_sum(fam),
            lambda: tl.terms.evaluate(tl.terms.sum_term(alpha), module, fam),
            lambda: tl.transfinite.restrict_sum(module, fam, case["bigger"]))


def _sums_verdict(tl, case):
    routes = _sum_routes(tl, case)
    if case["expected"] != DIVERGENT:
        got = tuple(route() for route in routes)
        return all(g == case["expected"] for g in got), got
    refused = []
    for route in routes:
        try:
            route()
        except tl.DivergentSumError:
            refused.append(True)
        else:
            refused.append(False)
    return all(refused), tuple(refused)


def _tower(tl, below, top, basis, multiplier):
    """Omega-system below[0] <- ... <- top <- top <- ...: quotient maps up to
    top, then x -> multiplier * x repeated."""
    hom = tl.Homomorphism.from_generator_images
    levels = (*below, top, top)
    maps = tuple(hom(upper, lower, basis)
                 for lower, upper in zip(levels, levels[1:-1]))
    endo = hom(top, top, [top.scal(multiplier, e) for e in basis])
    return tl.InverseSystem(tl.OMEGA, levels, maps + (endo,),
                            "repeat-last-block")


def _systems_verdict(tl, case):
    level, quotient, basis = case["level"], case["quotient"], case["basis"]
    m = case["multiplier"]
    if case["kind"] == "morphism":
        q = tl.Homomorphism.from_generator_images(level, quotient, basis)
        phi = tl.SystemMorphism(_tower(tl, (), level, basis, m),
                                _tower(tl, (), quotient, basis, m), (q, q))
        rep = tl.diagrams.check_inverse_limit_surjectivity(phi)
        got = {"limit_epi": rep.limit_epi, "source_depth": rep.source_depth,
               "target_depth": rep.target_depth}
        return got == case["expected"], got
    below = (quotient,)
    if case["kind"] == "section":
        below = (case["lower"], quotient)
    system = _tower(tl, below, level, basis, m)
    lobj = tl.diagrams.limit_object(system)
    got = {"size": len(lobj.elements()), "depth": lobj.depth}
    if case["kind"] == "section":
        got["section"] = tl.diagrams.lim_to_prod_section_check(
            system, trials=2, seed=case["seed"]).passed
    return got == case["expected"], got


def _cli_verdict(tl, case):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = tl.cli.main(list(case["argv"]))
    text = out.getvalue()
    return code == 0 and text == case["golden"], (code, zlib.crc32(
        text.encode("utf-8")))


_VERDICTS = {"limits": _limits_verdict, "sums": _sums_verdict,
             "systems": _systems_verdict, "cli": _cli_verdict}


def verdict(workload: str, case: dict):
    """(ok, observed) for one case; an unexpected error is a wrong verdict."""
    import translim as tl
    try:
        return _VERDICTS[workload](tl, case)
    except Exception as exc:  # the benchmark counts it and keeps running
        return False, f"{type(exc).__name__}: {exc}"
