"""Acceptance gate: ten exact criteria, one test per criterion.

Run `pytest tests/test_acceptance.py -v` for one pass/fail line per
criterion.  Everything is integer or symbolic arithmetic compared with ==;
there are no tolerances.  Sample sizes and seeds are fixed in the code, so
every run performs the identical computation.
"""

import itertools
import pathlib
import random
import time

import pytest

from translim import (
    OMEGA,
    ZERO,
    AdditiveTheory,
    DivergentSumError,
    FiniteMod,
    PwcSeq,
    TEST_ORDINALS,
    Var,
    build_lim_term,
    check_inverse_limit_surjectivity,
    evaluate,
    equivalence_audit,
    from_int,
    lim_eval,
    lim_to_prod_section_check,
    parse_ordinal,
    parse_term,
    refute_limit_term_finitary,
    restrict_sum,
    sample_points_below,
    standard_battery,
    sum_eval_from_lim,
    sum_term,
    summation_term_check,
    validate_refutation,
    verify_limit_term,
)
from translim.cli import main
from translim.sampling import random_surjective_system_morphism, random_system

BATTERY = list(standard_battery())
GOLDEN = pathlib.Path(__file__).parent / "golden"


def all_families(module, alpha, max_pieces=3):
    """Every pwc family over alpha: all value tuples when alpha is finite,
    else every <= max_pieces arrangement with cuts from the canonical grid."""
    if alpha.is_finite:
        for values in itertools.product(module.elements(),
                                        repeat=alpha.to_int()):
            yield PwcSeq.from_tuple(values)
        return
    grid = sample_points_below(alpha)
    for n_pieces in range(1, max_pieces + 1):
        for cuts in itertools.combinations(grid, n_pieces - 1):
            bounds = (ZERO,) + cuts + (alpha,)
            for values in itertools.product(module.elements(),
                                            repeat=n_pieces):
                yield PwcSeq.from_pieces(
                    [(bounds[i], bounds[i + 1], values[i])
                     for i in range(n_pieces)])


def test_criterion_01_limit_term_laws_hold_for_lim_eval():
    # Both laws, on every test ordinal and every battery instance.  The
    # randomized side runs 100 trials per instance (500 per ordinal); the
    # exhaustive side checks every family from all_families against the
    # one-line semantic consequence of the laws: the value of lim is the
    # value of the family's final piece.
    t0 = time.monotonic()
    for alpha in TEST_ORDINALS:
        term = build_lim_term(alpha)
        for module in BATTERY:
            report = verify_limit_term(term, alpha, module,
                                       trials=100, seed=11)
            assert report.passed, report.to_json()
        for module in BATTERY:
            for fam in all_families(module, alpha):
                assert lim_eval(module, fam) == fam.pieces()[-1][2]
    assert time.monotonic() - t0 < 60.0


def test_criterion_02_summation_through_limits_matches_direct_sums():
    # sum_eval_from_lim against the finite-support oracle: exhaustive over
    # supports of size <= 3 drawn from six index points spanning finite,
    # limit, and power positions, with every choice of nonzero values;
    # then 500 seeded random finite-support families.
    length = parse_ordinal("w^2+1")
    points = [parse_ordinal(t) for t in ("0", "1", "2", "w", "w+1", "w^2")]
    for module in BATTERY:
        zero = module.zero()
        assert sum_eval_from_lim(module, PwcSeq.constant(zero, length)) == zero
        nonzero = [e for e in module.elements() if e != zero]
        for size in (1, 2, 3):
            for spots in itertools.combinations(points, size):
                for values in itertools.product(nonzero, repeat=size):
                    fam = PwcSeq.from_support(list(zip(spots, values)),
                                              length, zero)
                    assert (sum_eval_from_lim(module, fam)
                            == module.infinitary_sum(fam))
    rng = random.Random(2)
    pool = sample_points_below(length)
    for trial in range(500):
        module = BATTERY[trial % len(BATTERY)]
        spots = rng.sample(pool, rng.randint(0, 3))
        entries = [(p, rng.choice(module.elements())) for p in spots]
        fam = PwcSeq.from_support(entries, length, module.zero())
        assert sum_eval_from_lim(module, fam) == module.infinitary_sum(fam)


def test_criterion_03_successor_limits_return_the_last_entry():
    # Exhaustive over every tuple family of length 1..6.
    for literal in ("Z/2", "Z/4"):
        module = FiniteMod(int(literal[2:]), (int(literal[2:]),))
        for k in range(1, 7):
            for values in itertools.product(module.elements(), repeat=k):
                fam = PwcSeq.from_tuple(values)
                assert lim_eval(module, fam) == values[-1]


def test_criterion_04_sum_restriction_agrees_with_the_direct_sum():
    # Zero-padding a beta-family into a larger index must not change the
    # sum; beta runs over the canonical grid below each alpha.
    rng = random.Random(4)
    for alpha_text in ("w", "w+3", "w*2", "w^2"):
        alpha = parse_ordinal(alpha_text)
        for beta in sample_points_below(alpha):
            for module in BATTERY:
                zero = module.zero()
                fams = []
                if beta.is_finite and beta.to_int() <= 3:
                    fams = [PwcSeq.from_tuple(v) for v in itertools.product(
                        module.elements(), repeat=beta.to_int())]
                elif beta.is_finite:
                    fams = [PwcSeq.from_tuple(tuple(
                        rng.choice(module.elements())
                        for _ in range(beta.to_int()))) for _ in range(20)]
                else:
                    inner = sample_points_below(beta)
                    for _ in range(20):
                        spots = rng.sample(inner, rng.randint(0, 3))
                        fams.append(PwcSeq.from_support(
                            [(p, rng.choice(module.elements()))
                             for p in spots], beta, zero))
                for fam in fams:
                    assert (restrict_sum(module, fam, alpha)
                            == module.infinitary_sum(fam))


def test_criterion_05_summation_terms_recover_indicator_families():
    # Exhaustive indicator check for every index 1..6, position, instance,
    # and value: the summation term applied to a one-point family returns
    # that point's value.  Then the three-route semantic check, 100 seeded
    # trials per battery instance (500 total) over the first limit index.
    for module in BATTERY:
        zero = module.zero()
        for k in range(1, 7):
            index = from_int(k)
            term = sum_term(index)
            for i in range(k):
                for m in module.elements():
                    fam = PwcSeq.from_support([(from_int(i), m)], index, zero)
                    assert evaluate(term, module, fam) == m
                    assert module.infinitary_sum(fam) == m
    for module in BATTERY:
        report = summation_term_check(module, OMEGA, trials=100, seed=5)
        assert report.passed, report.to_json()
        assert report.trials == 100


def test_criterion_06_finitary_limit_terms_decided_with_certificates():
    # Limit indices: refuted, and the refutation defeats every candidate
    # term we throw at it with a certificate that validate_refutation
    # re-evaluates through the term evaluator.  Successor indices: a term
    # exists and its witness passes the two laws.
    candidates = ("x0", "(+ x0 x1)", "(+ x0 (+ x1 x2))", "(scal 2 x0)",
                  "(- x0)")
    for modulus in range(2, 7):
        theory = AdditiveTheory(modulus, infinitary=False)
        for alpha_text in ("w", "w*2", "w^2"):
            alpha = parse_ordinal(alpha_text)
            verdict = refute_limit_term_finitary(modulus, alpha)
            assert verdict.exists is False
            for text in candidates:
                term = parse_term(text, theory, alpha)
                witness = verdict.challenge(term)
                ok, details = validate_refutation(witness, term)
                assert ok, details
    for modulus in range(2, 7):
        for k in range(1, 7):
            alpha = from_int(k)
            verdict = refute_limit_term_finitary(modulus, alpha)
            assert verdict.exists is True
            assert verdict.witness_term == Var(from_int(k - 1))
            module = FiniteMod(modulus, (modulus,), infinitary=False)
            report = verify_limit_term(verdict.witness_term, alpha, module,
                                       trials=25, seed=3)
            assert report.passed, report.to_json()


def test_criterion_07_inverse_limits_of_sampled_epis_stay_surjective():
    # 200 seeded levelwise-surjective morphisms of omega-systems with
    # levels capped at 8 elements: the induced map on limits is onto and
    # both image chains stabilize within depth 4.  Then the summation
    # retraction check on 50 sampled systems.
    t0 = time.monotonic()
    moduli = (2, 3, 4, 6)
    for seed in range(200):
        rng = random.Random(seed)
        phi = random_surjective_system_morphism(rng, moduli[seed % 4])
        report = check_inverse_limit_surjectivity(phi)
        assert report.limit_epi, (seed, report.missed)
        assert report.source_depth <= 4
        assert report.target_depth <= 4
    for seed in range(50):
        rng = random.Random(1000 + seed)
        system = random_system(rng, moduli[seed % 4])
        section = lim_to_prod_section_check(system, trials=10, seed=seed)
        assert section.passed, (seed, section.witness)
    assert time.monotonic() - t0 < 120.0


def test_criterion_08_three_condition_audit_has_no_disagreement():
    rows = equivalence_audit()
    assert len(rows) == 12
    for row in rows:
        assert row.agree, row.to_json()
        expected = row.infinitary or row.modulus == 1
        assert row.cond_limits is expected, row.to_json()


def test_criterion_09_constant_nonzero_series_diverge():
    for module in BATTERY:
        zero = module.zero()
        for c in module.elements():
            if c == zero:
                continue
            fam = PwcSeq.constant(c, OMEGA)
            with pytest.raises(DivergentSumError):
                module.infinitary_sum(fam)
            with pytest.raises(DivergentSumError):
                sum_eval_from_lim(module, fam)


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


def test_criterion_10_cli_runs_are_deterministic_and_match_goldens(capsys):
    # Identical argv and seed must produce identical bytes, and those bytes
    # must equal the checked-in golden file, for all ten-plus invocations.
    for argv, name in GOLDEN_RUNS:
        first_code = main(list(argv))
        first = capsys.readouterr().out
        second_code = main(list(argv))
        second = capsys.readouterr().out
        assert first_code == 0 and second_code == 0, name
        assert first == second, name
        expected = (GOLDEN / name).read_text(encoding="utf-8")
        assert first == expected, name
