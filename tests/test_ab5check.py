"""The three-way equivalence: limit terms, reachability, diagonal sums."""

import pytest

from translim import (
    INDEX,
    OMEGA,
    ZERO,
    AdditiveTheory,
    App,
    FiniteMod,
    Homomorphism,
    InvalidAlphaError,
    PwcSeq,
    Sum,
    TheoryMismatchError,
    ZERO_TERM,
    diagonal_factorization,
    equivalence_audit,
    eta_surjective_decision,
    evaluate,
    from_int,
    parse_instance,
    sample_points_below,
    scal,
    standard_battery,
    sum_term,
    summation_naturality_check,
    summation_term_check,
    var,
    weighted_sum_term,
)
from translim.ab5check import _finite_sum_term

Z3 = parse_instance("Z/3")
Z4 = parse_instance("Z/4")
Z2m4 = FiniteMod(4, (2,))


# -- reachability -------------------------------------------------------------------

def test_eta_trivial_module():
    v = eta_surjective_decision(1, OMEGA)
    assert v.surjective
    assert v.certificate["kind"] == "trivial-module"


def test_eta_finite_index():
    v = eta_surjective_decision(4, from_int(5))
    assert v.surjective
    assert v.certificate == {"kind": "finite-index", "support_bound": 5}


def test_eta_constant_one_escape():
    v = eta_surjective_decision(2, OMEGA)
    assert not v.surjective
    cert = v.certificate
    assert cert["kind"] == "constant-one-escape"
    growth = cert["truncation_support"]
    assert growth == sorted(growth) and len(set(growth)) == len(growth)
    data = v.to_json()
    assert data["index"] == "w" and data["surjective"] is False


def test_eta_rejects_bad_modulus():
    with pytest.raises(InvalidAlphaError):
        eta_surjective_decision(0, OMEGA)


# -- the diagonal ----------------------------------------------------------------------

def test_diagonal_infinitary_limit_index():
    rep = diagonal_factorization(AdditiveTheory(4), OMEGA)
    assert rep.exists and rep.verified
    assert rep.term == sum_term(OMEGA)
    assert rep.checks > 0 and rep.witness is None
    assert rep.to_json()["term"] == "(sum w [0,w)->idx)"


def test_diagonal_infinitary_finite_index():
    rep = diagonal_factorization(AdditiveTheory(3), from_int(4))
    assert rep.verified and rep.term == sum_term(from_int(4))


def test_diagonal_finitary_finite_index():
    rep = diagonal_factorization(AdditiveTheory(3, infinitary=False),
                                 from_int(3))
    assert rep.verified
    assert rep.term == App("+", (App("+", (var(0), var(1))), var(2)))
    assert rep.term == _finite_sum_term(3)


def test_diagonal_finitary_limit_index_fails_with_certificate():
    rep = diagonal_factorization(AdditiveTheory(2, infinitary=False), OMEGA)
    assert not rep.exists
    assert rep.term is None
    assert rep.refutation["kind"] == "constant-one-escape"
    assert not rep.verified


def test_diagonal_finitary_trivial_module():
    rep = diagonal_factorization(AdditiveTheory(1, infinitary=False), OMEGA)
    assert rep.verified and rep.term == ZERO_TERM


def test_diagonal_input_validation():
    with pytest.raises(InvalidAlphaError):
        diagonal_factorization(AdditiveTheory(2), ZERO)
    with pytest.raises(TheoryMismatchError):
        diagonal_factorization(AdditiveTheory(2), OMEGA, modules=(Z4,))


def _recovers_one_point_families(term, module, index):
    """The diagonal-factorization property, checked directly."""
    for x in [ZERO] + sample_points_below(index)[:5]:
        for m in module.elements():
            fam = PwcSeq.from_support([(x, m)], index, module.zero())
            if evaluate(term, module, fam) != m:
                return False
    return True


def _sums_random_families(term, module, index, trials=40):
    """Agreement with the instance sum, checked directly."""
    import random

    from translim.sampling import random_support_family
    rng = random.Random(7)
    for _ in range(trials):
        fam = random_support_family(rng, module, index)
        if evaluate(term, module, fam) != module.infinitary_sum(fam):
            return False
    return True


def _truncated_sum():
    return Sum(OMEGA, PwcSeq.from_pieces(
        [(ZERO, from_int(3), INDEX), (from_int(3), OMEGA, ZERO_TERM)]))


@pytest.mark.parametrize("term,expected", [
    (sum_term(OMEGA), True),
    (scal(2, sum_term(OMEGA)), False),
    (_truncated_sum(), False),
], ids=["canonical", "doubled", "truncated"])
def test_diagonal_and_summation_indicators_agree(term, expected):
    recovers = _recovers_one_point_families(term, Z3, OMEGA)
    sums = _sums_random_families(term, Z3, OMEGA)
    assert recovers == sums == expected


# -- summation checks --------------------------------------------------------------------

def test_summation_term_check_passes_on_battery():
    for module in standard_battery():
        rep = summation_term_check(module, OMEGA, trials=15)
        assert rep.passed, rep.witness
        assert rep.trials == 15
        assert rep.to_json()["instance"] == module.literal


def test_summation_term_check_catches_tampered_limit_route(monkeypatch):
    monkeypatch.setattr("translim.transfinite.lim_eval",
                        lambda module, fam: module.zero())
    rep = summation_term_check(Z4, OMEGA, trials=30)
    assert not rep.passed
    assert set(rep.witness) == {"family", "via_term", "direct", "via_limit"}
    assert rep.witness["via_limit"] != rep.witness["direct"]


def test_summation_naturality():
    mod2 = Homomorphism.from_function(Z4, Z2m4, lambda x: (x[0] % 2,))
    rep = summation_naturality_check(mod2, OMEGA, trials=12)
    assert rep.passed
    assert rep.instance == "Z/4 -> Z/2"
    double = Homomorphism.from_generator_images(Z4, Z4, [(2,)])
    assert summation_naturality_check(double, OMEGA + from_int(2)).passed


class _Squaring:
    """x -> x*x on Z/4: not additive, so no Homomorphism table accepts it;
    the check only needs domain, codomain and a call."""

    domain = codomain = Z4

    def __call__(self, x):
        return (x[0] * x[0] % 4,)


def test_summation_naturality_catches_unstructured_map():
    squaring = _Squaring()
    rep = summation_naturality_check(squaring, OMEGA, trials=40)
    assert not rep.passed
    assert rep.witness is not None


def test_weighted_sum_term():
    weights = PwcSeq.from_pieces(
        [(ZERO, from_int(2), 3), (from_int(2), OMEGA, 1)])
    term = weighted_sum_term(weights)
    assert term == Sum(OMEGA, PwcSeq.from_pieces(
        [(ZERO, from_int(2), scal(3, INDEX)),
         (from_int(2), OMEGA, scal(1, INDEX))]))
    fam = PwcSeq.from_pieces(
        [(ZERO, from_int(4), (1,)), (from_int(4), OMEGA, (0,))])
    # 3 + 3 + 1 + 1 = 8 = 0 mod 4
    assert evaluate(term, Z4, fam) == (0,)
    constant_weight = weighted_sum_term(PwcSeq.constant(1, OMEGA))
    assert evaluate(constant_weight, Z4, fam) == evaluate(
        sum_term(OMEGA), Z4, fam)


# -- the audit ------------------------------------------------------------------------------

def test_equivalence_audit_shape_and_agreement():
    rows = equivalence_audit(trials=10)
    assert len(rows) == 12
    for row in rows:
        assert row.agree, row.to_json()
        if row.infinitary:
            assert row.cond_limits and row.cond_reach and row.cond_diagonal
        else:
            expected = row.modulus == 1
            assert row.cond_limits == expected
            assert row.cond_reach == expected
            assert row.cond_diagonal == expected
        data = row.to_json()
        assert set(data) == {"theory", "modulus", "infinitary", "cond_limits",
                             "cond_reach", "cond_diagonal", "agree"}
