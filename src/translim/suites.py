"""Named check suites: transfinite, diagrams, ab5, and their union.

Each suite returns a SuiteReport with a deterministic case list for a
given seed.  Case totals are fixed: transfinite 40, diagrams 33, ab5 35.

The limit evaluator is always reached through the transfinite module
attribute, never through a local alias, so replacing
translim.transfinite.lim_eval really does poison every suite case that
claims to exercise it; the test suite uses that as a negative control.
"""

from __future__ import annotations

import itertools
import random

from . import ab5check, diagrams, sampling, transfinite
from .errors import DivergentSumError, LevelwiseNotEpiError, UnknownSuiteError
from .instances import FiniteMod, Homomorphism, standard_battery
from .ordinal import OMEGA, ZERO, format_ordinal, from_int, parse_ordinal
from .pwcseq import PwcSeq, format_pwc
from .reports import SuiteReport, case
from .terms import AdditiveTheory, App, evaluate, format_term, scal, var
from .transfinite import build_lim_term

TEST_ORDINALS = tuple(parse_ordinal(s) for s in (
    "1", "2", "5", "w", "w+1", "w+3", "w*2", "w^2", "w^2+w+1"))


def _battery_for(i: int):
    battery = standard_battery()
    return battery[i % len(battery)]


def transfinite_suite(seed: int = 0) -> SuiteReport:
    """Limit-term laws, recursion audits, summation, refutation: 40 cases."""
    cases = []
    # 9 cases: the two laws for the canonical limit term
    for i, alpha in enumerate(TEST_ORDINALS):
        module = _battery_for(i)
        rep = transfinite.verify_limit_term(
            build_lim_term(alpha), alpha, module, trials=20, seed=seed + i)
        cases.append(case("limit-term laws", rep.passed,
                          alpha=format_ordinal(alpha),
                          instance=module.literal, witness=rep.witness))
    # 9 cases: the recursion agrees with its telescoped form
    for i, alpha in enumerate(TEST_ORDINALS):
        module = _battery_for(i + 1)
        rng = random.Random(seed * 1009 + i)
        witness = None
        for _ in range(5):
            fam = sampling.random_pwc(rng, module, alpha)
            honest = transfinite.lim_eval(module, fam)
            fast = transfinite.lim_value(module, fam)
            if honest != fast:
                witness = {
                    "family": format_pwc(fam, module.format_element),
                    "recursion": module.format_element(honest),
                    "telescoped": module.format_element(fast),
                }
                break
        cases.append(case("limit recursion telescopes", witness is None,
                          alpha=format_ordinal(alpha),
                          instance=module.literal, witness=witness))
    # 1 case: successor law, exhaustive small
    witness = None
    z2 = FiniteMod(2, (2,))
    for n in range(1, 5):
        for values in itertools.product(z2.elements(), repeat=n):
            fam = PwcSeq.from_tuple(values)
            got = transfinite.lim_eval(z2, fam)
            if got != values[-1]:
                witness = {"family": format_pwc(fam, z2.format_element),
                           "got": z2.format_element(got)}
                break
        if witness:
            break
    cases.append(case("successor limit is the last entry", witness is None,
                      alpha="<=4", instance=z2.literal, witness=witness))
    # 6 cases: three summation routes agree
    for i, alpha in enumerate((OMEGA, parse_ordinal("w+1"),
                               parse_ordinal("w^2"))):
        for module in (standard_battery()[0], standard_battery()[4]):
            rep = ab5check.summation_term_check(module, alpha, trials=15,
                                                seed=seed + i)
            cases.append(case("summation routes agree", rep.passed,
                              alpha=format_ordinal(alpha),
                              instance=module.literal, witness=rep.witness))
    # 6 cases: finitary refutation certificates validated through evaluate
    candidates = (var(0), App("+", (var(0), var(1))),
                  scal(2, var(3)))
    for n in (2, 3):
        verdict = transfinite.refute_limit_term_finitary(n, OMEGA)
        for term in candidates:
            ok = False
            witness = None
            if not verdict.exists:
                w = verdict.challenge(term)
                ok, witness = transfinite.validate_refutation(w, term)
            cases.append(case(
                f"refutation defeats {format_term(term)}", ok,
                alpha="w", instance=f"Z/{n}", witness=witness))
    # 5 cases: restrict_sum compatibility
    rng = random.Random(seed * 31 + 7)
    big = parse_ordinal("w*2")
    module = standard_battery()[2]
    for i in range(5):
        beta = rng.choice((from_int(3), OMEGA, parse_ordinal("w+2")))
        fam = sampling.random_support_family(rng, module, beta)
        direct = transfinite.sum_eval_from_lim(module, fam)
        extended = transfinite.restrict_sum(module, fam, big)
        witness = None
        if direct != extended:
            witness = {"family": format_pwc(fam, module.format_element),
                       "direct": module.format_element(direct),
                       "extended": module.format_element(extended)}
        cases.append(case("sum restriction compatible", witness is None,
                          alpha=format_ordinal(beta),
                          instance=module.literal, witness=witness))
    # 4 cases: constant nonzero families over omega must diverge
    for module in standard_battery()[:4]:
        one = module.elements()[1] if module.size > 1 else module.zero()
        try:
            module.infinitary_sum(PwcSeq.constant(one, OMEGA))
            ok, witness = False, {"summed": "constant nonzero over w"}
        except DivergentSumError:
            ok, witness = True, None
        cases.append(case("constant family diverges", ok, alpha="w",
                          instance=module.literal, witness=witness))
    return SuiteReport("transfinite", seed, tuple(cases))


def diagrams_suite(seed: int = 0) -> SuiteReport:
    """Named systems, surjectivity evidence, sections, naturality: 33 cases."""
    cases = []
    z4 = FiniteMod(4, (4,))
    z2_over4 = FiniteMod(4, (2,))
    # 1: constant system with identity maps
    system = diagrams.InverseSystem(OMEGA, (z4,), (), "constant")
    lobj = diagrams.limit_object(system)
    cases.append(case("constant system limit is the level",
                      len(lobj.elements()) == 4 and lobj.depth == 0,
                      alpha="w", instance=z4.literal))
    # 1: multiplication by 2 with a repeating last map
    mult2 = Homomorphism.from_generator_images(z4, z4, [(2,)])
    system = diagrams.InverseSystem(OMEGA, (z4, z4), (mult2,),
                                    "repeat-last-block")
    lobj = diagrams.limit_object(system)
    cases.append(case("doubling system collapses to zero",
                      len(lobj.elements()) == 1 and lobj.depth == 2,
                      alpha="w", instance=z4.literal))
    # 2: capped reduction tower and its thread consistency
    reduce_map = Homomorphism.from_generator_images(z4, z2_over4, [(1,)])
    system = diagrams.InverseSystem(
        OMEGA, (z2_over4, z4, z4),
        (reduce_map, Homomorphism.identity(z4)), "constant")
    lobj = diagrams.limit_object(system)
    cases.append(case("capped tower limit is the top level",
                      len(lobj.elements()) == 4 and lobj.depth == 0,
                      alpha="w", instance="Z/2 <- Z/4 <- Z/4"))
    consistent = all(
        system.map_at(j)(lobj.coordinate(x, j + 1)) == lobj.coordinate(x, j)
        for x in lobj.elements() for j in range(4))
    cases.append(case("capped tower threads are consistent", consistent,
                      alpha="w", instance="Z/2 <- Z/4 <- Z/4"))
    # 4: extension by zero, honest limit and colimit values
    z2 = FiniteMod(2, (2,))
    for beta, alpha in ((ZERO, from_int(3)), (from_int(2), OMEGA)):
        sys_b = diagrams.extend_by_zero_system(z2, beta, alpha)
        lim_b = diagrams.limit_object(sys_b)
        cases.append(case("zero-extension limit is zero",
                          len(lim_b.elements()) == 1,
                          alpha=format_ordinal(alpha), instance=z2.literal))
        cases.append(case("zero-extension colimit is the module",
                          diagrams.colimit_object(sys_b) == z2,
                          alpha=format_ordinal(alpha), instance=z2.literal))
    # 1: the canonical comparison between two cuts exists and is verified
    try:
        diagrams.extend_by_zero_comparison(z2, ZERO, from_int(2), OMEGA)
        diagrams.extend_by_zero_comparison(z4, from_int(1), from_int(2),
                                           from_int(4))
        cases.append(case("cut comparison morphisms verified", True))
    except Exception as exc:  # pragma: no cover - failure is the witness
        cases.append(case("cut comparison morphisms verified", False,
                          witness={"error": str(exc)}))
    # 1: quotient of constant systems is surjective on limits
    quotient = Homomorphism.from_generator_images(z4, z2_over4, [(1,)])
    phi = diagrams.SystemMorphism(
        diagrams.InverseSystem(OMEGA, (z4,), (), "constant"),
        diagrams.InverseSystem(OMEGA, (z2_over4,), (), "constant"),
        (quotient,))
    rep = diagrams.check_inverse_limit_surjectivity(phi)
    cases.append(case("constant quotient stays epi on limits", rep.limit_epi,
                      alpha="w", instance="Z/4 -> Z/2",
                      witness=rep.to_json() if not rep.limit_epi else None))
    # 12: random levelwise-surjective morphisms stay epi with shallow depth
    rng = random.Random(seed * 7919 + 11)
    for i in range(12):
        modulus = rng.choice((2, 3, 4, 6))
        phi = sampling.random_surjective_system_morphism(rng, modulus)
        rep = diagrams.check_inverse_limit_surjectivity(phi)
        ok = rep.limit_epi and rep.source_depth <= 4 and rep.target_depth <= 4
        cases.append(case("random epi morphism stays epi", ok, alpha="w",
                          instance=f"mod {modulus}",
                          witness=rep.to_json() if not ok else None))
    # 1: a non-surjective level is rejected up front
    bad = Homomorphism.from_generator_images(z4, z4, [(2,)])
    phi = diagrams.SystemMorphism(
        diagrams.InverseSystem(OMEGA, (z4,), (), "constant"),
        diagrams.InverseSystem(OMEGA, (z4,), (), "constant"),
        (bad,))
    try:
        diagrams.check_inverse_limit_surjectivity(phi)
        cases.append(case("non-epi level raises", False,
                          witness={"error": "no exception"}))
    except LevelwiseNotEpiError:
        cases.append(case("non-epi level raises", True))
    # 6: section checks on random systems
    for i in range(6):
        modulus = (2, 3, 4, 6, 4, 2)[i]
        system = sampling.random_system(random.Random(seed * 131 + i), modulus)
        rep = diagrams.lim_to_prod_section_check(system, trials=6,
                                                 seed=seed + i)
        cases.append(case("retraction recovers threads", rep.passed,
                          alpha="w", instance=f"mod {modulus}",
                          witness=rep.witness))
    # 1: finite-index section check is the top-level projection
    fin = diagrams.extend_by_zero_system(z4, from_int(2), from_int(3))
    rep = diagrams.lim_to_prod_section_check(fin, trials=8, seed=seed)
    cases.append(case("finite retraction projects to the top", rep.passed,
                      alpha="3", instance=z4.literal, witness=rep.witness))
    # 1: functoriality of the induced map on a comparison chain
    f01 = diagrams.extend_by_zero_comparison(z4, ZERO, from_int(1), OMEGA)
    f12 = diagrams.extend_by_zero_comparison(z4, from_int(1), from_int(2),
                                             OMEGA)
    f02 = diagrams.extend_by_zero_comparison(z4, ZERO, from_int(2), OMEGA)
    composed = diagrams.compose_system_morphisms(f12, f01)
    lhs = diagrams.induced_limit_map(composed)
    rhs = diagrams.induced_limit_map(f12).after(
        diagrams.induced_limit_map(f01))
    cases.append(case("induced limit maps compose", lhs == rhs,
                      alpha="w", instance=z4.literal))
    # 2: the retraction is natural in the system
    rng = random.Random(seed * 523 + 3)
    for i in range(2):
        phi = sampling.random_surjective_system_morphism(rng, 4)
        ok, witness = _retraction_naturality(phi, rng)
        cases.append(case("retraction is natural", ok, alpha="w",
                          instance="mod 4", witness=witness))
    return SuiteReport("diagrams", seed, tuple(cases))


def _retraction_naturality(phi, rng):
    """Retract-then-map must equal map-then-retract on junk+thread elements."""
    src, tgt = phi.source, phi.target
    ls = diagrams.limit_object(src)
    threads = ls.elements()
    t = rng.choice(threads)
    junk_len = rng.randint(0, src.height)
    junk = [rng.choice(src.level(j).elements()) for j in range(junk_len)]

    def coord(j):
        return junk[j] if j < junk_len else ls.coordinate(t, j)

    def mapped(j):
        return phi.hom_at(j)(coord(j))

    levels = src.height + 1
    retracted = diagrams.retract_product_levels(src, coord, junk_len, levels)
    retracted_image = diagrams.retract_product_levels(tgt, mapped, junk_len,
                                                      levels)
    for gamma, (x, through_target) in enumerate(zip(retracted,
                                                    retracted_image)):
        through_source = phi.hom_at(gamma)(x)
        if through_source != through_target:
            lvl = tgt.level(gamma)
            return False, {
                "level": gamma,
                "map_after_retract": lvl.format_element(through_source),
                "retract_after_map": lvl.format_element(through_target),
            }
    return True, None


def ab5_suite(seed: int = 0) -> SuiteReport:
    """Equivalence audit plus its three ingredients separately: 35 cases."""
    cases = []
    # 12: the audit rows must agree internally and match the expected truth
    for row in ab5check.equivalence_audit(seed=seed, trials=15):
        expected = row.infinitary or row.modulus == 1
        ok = row.agree and row.cond_limits == expected
        cases.append(case(f"audit row {row.theory}", ok,
                          alpha="w", instance=f"Z/{row.modulus}",
                          witness=row.to_json() if not ok else None))
    # 3: reachability decisions on the named examples
    for modulus, index, expect in ((2, from_int(3), True), (2, OMEGA, False),
                                   (1, OMEGA, True)):
        verdict = ab5check.eta_surjective_decision(modulus, index)
        cases.append(case("finite-support reachability", verdict.surjective == expect,
                          alpha=format_ordinal(index), instance=f"Z/{modulus}",
                          witness=verdict.to_json()
                          if verdict.surjective != expect else None))
    # 4: diagonal factorization, both flavours and both index sizes
    for infinitary in (True, False):
        for index in (from_int(4), OMEGA):
            theory = AdditiveTheory(2, infinitary)
            rep = ab5check.diagonal_factorization(theory, index)
            expect = infinitary or index.is_finite
            ok = rep.verified == expect and rep.exists == expect
            if not expect:
                ok = ok and rep.refutation is not None
            cases.append(case("diagonal factorization decision", ok,
                              alpha=format_ordinal(index),
                              instance=theory.literal,
                              witness=rep.to_json() if not ok else None))
    # 10: summation term check across the battery at two limit indices
    for i, alpha in enumerate((OMEGA, parse_ordinal("w*2"))):
        for module in standard_battery():
            rep = ab5check.summation_term_check(module, alpha, trials=12,
                                                seed=seed + i)
            cases.append(case("summation term sums", rep.passed,
                              alpha=format_ordinal(alpha),
                              instance=module.literal, witness=rep.witness))
    # 4: summation commutes with homomorphisms
    rng = random.Random(seed * 271 + 5)
    z4 = FiniteMod(4, (4,))
    z2_over4 = FiniteMod(4, (2,))
    pairs = ((z4, z2_over4), (z4, z4), (FiniteMod(6, (6,)), FiniteMod(6, (3,))),
             (FiniteMod(2, (2, 2)), FiniteMod(2, (2,))))
    for dom, cod in pairs:
        hom = sampling.random_hom(rng, dom, cod)
        rep = ab5check.summation_naturality_check(hom, OMEGA, trials=10,
                                                  seed=seed)
        cases.append(case("summation is natural", rep.passed, alpha="w",
                          instance=rep.instance, witness=rep.witness))
    # 1: weighted sums evaluate to the weighted finite sum
    witness = None
    module = FiniteMod(6, (6,))
    rng = random.Random(seed + 17)
    for _ in range(10):
        weights = sampling.random_pwc(rng, FiniteMod(6, (1,)), OMEGA)
        int_weights = weights.map_values(lambda w: rng.randrange(6))
        fam = sampling.random_support_family(rng, module, OMEGA)
        term = ab5check.weighted_sum_term(int_weights)
        got = evaluate(term, module, fam)
        scaled = fam.zip_map(int_weights, lambda m, w: module.scal(w, m))
        want = module.infinitary_sum(scaled)
        if got != want:
            witness = {"got": module.format_element(got),
                       "want": module.format_element(want)}
            break
    cases.append(case("weighted summation term evaluates", witness is None,
                      alpha="w", instance=module.literal, witness=witness))
    # 1: restrict_sum acts as a summation evaluator across indices
    module = FiniteMod(4, (4,))
    rng = random.Random(seed + 23)
    ok = True
    witness = None
    for _ in range(10):
        fam = sampling.random_support_family(rng, module, OMEGA)
        via_restrict = transfinite.restrict_sum(module, fam,
                                                parse_ordinal("w*2"))
        direct = module.infinitary_sum(fam)
        if via_restrict != direct:
            ok = False
            witness = {"family": format_pwc(fam, module.format_element)}
            break
    cases.append(case("sum restriction as evaluator", ok, alpha="w*2",
                      instance=module.literal, witness=witness))
    return SuiteReport("ab5", seed, tuple(cases))


_SUITES = {
    "transfinite": transfinite_suite,
    "diagrams": diagrams_suite,
    "ab5": ab5_suite,
}


def run_suite(name: str, seed: int = 0):
    """One suite by name, or all three in a fixed order."""
    if name == "all":
        return [fn(seed) for fn in
                (transfinite_suite, diagrams_suite, ab5_suite)]
    if name not in _SUITES:
        raise UnknownSuiteError(f"unknown suite {name!r}")
    return [_SUITES[name](seed)]
