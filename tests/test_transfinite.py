"""Difference-and-sum recursion, summation routes, limit-term verdicts."""

import sys

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import translim.transfinite as transfinite
from conftest import (lengthy_pieces, ordinals, point_by_point_sum,
                      pwc_over, random_pwc_over, support_if_finite,
                      terms_over)

from translim import (
    INDEX,
    OMEGA,
    ONE,
    ZERO,
    AdditiveTheory,
    App,
    DivergentSumError,
    FiniteMod,
    FreeSymbolic,
    InfiniteCarrierError,
    InvalidAlphaError,
    LengthMismatchError,
    Lim,
    PwcSeq,
    ResourceLimitError,
    TheoryMismatchError,
    TranslimError,
    UnboundVariableError,
    Var,
    ZERO_TERM,
    basis_family,
    build_lim_term,
    check_constants_fixed,
    check_prefix_independence,
    evaluate,
    format_ordinal,
    from_int,
    left_subtract,
    lim_eval,
    lim_value,
    parse_instance,
    parse_ordinal,
    refute_limit_term_finitary,
    restrict_sum,
    scal,
    standard_battery,
    substitute,
    sum_eval_from_lim,
    sum_term,
    validate_refutation,
    var,
    verify_limit_term,
)
from translim.ordinal import split_finite

Z2 = parse_instance("Z/2")
Z3 = parse_instance("Z/3")
Z4 = parse_instance("Z/4")
Z6 = parse_instance("Z/6")


def _case_id(value):
    """A module parameter by its literal, any other by its str."""
    return value.literal if isinstance(value, FiniteMod) else str(value)


def _seq(module, pieces):
    return PwcSeq.from_pieces(
        [(from_int(lo) if isinstance(lo, int) else lo,
          from_int(hi) if isinstance(hi, int) else hi, v)
         for lo, hi, v in pieces])


# -- the recursion ----------------------------------------------------------------

def test_lim_eval_examples():
    assert lim_eval(Z4, PwcSeq.empty()) == (0,)
    assert lim_eval(Z4, PwcSeq.constant((3,), OMEGA)) == (3,)
    fam = _seq(Z4, [(0, 3, (1,)), (3, OMEGA, (2,))])
    assert lim_eval(Z4, fam) == (2,)
    assert lim_eval(Z4, PwcSeq.from_tuple(((1,), (2,), (3,)))) == (3,)


def test_lim_eval_successor_is_last_entry():
    fam = _seq(Z6, [(0, OMEGA, (1,)), (OMEGA, OMEGA + from_int(2), (5,))])
    assert lim_eval(Z6, fam) == (5,)
    assert lim_eval(Z6, fam) == fam.value_at(fam.length.predecessor())


def test_lim_value_of_the_empty_family_is_zero():
    assert lim_value(Z4, PwcSeq.empty()) == (0,)
    free = FreeSymbolic(AdditiveTheory(2), OMEGA)
    assert lim_value(free, PwcSeq.empty()) == ZERO_TERM


# -- summation through the recursion -------------------------------------------------

def test_sum_eval_peels_successors():
    fam = _seq(Z6, [(0, 2, (1,)), (2, OMEGA, (0,)),
                    (OMEGA, OMEGA + from_int(2), (3,))])
    assert sum_eval_from_lim(Z6, fam) == (2,)
    assert Z6.infinitary_sum(fam) == (2,)


def test_sum_eval_examples():
    assert sum_eval_from_lim(Z4, PwcSeq.empty()) == (0,)
    assert sum_eval_from_lim(Z4, PwcSeq.from_tuple(((1,), (2,), (3,)))) == (2,)
    tail_zero = _seq(Z2, [(0, 3, (1,)), (3, OMEGA, (0,))])
    assert sum_eval_from_lim(Z2, tail_zero) == (1,)


def test_sum_eval_divergence():
    with pytest.raises(DivergentSumError):
        sum_eval_from_lim(Z2, PwcSeq.constant((1,), OMEGA))
    with pytest.raises(DivergentSumError):
        sum_eval_from_lim(
            Z2, _seq(Z2, [(0, OMEGA, (1,)), (OMEGA, OMEGA + from_int(1), (0,))]))


@settings(max_examples=120, deadline=None)
@given(pwc_over())
def test_sum_routes_agree(pair):
    module, fam = pair
    try:
        direct = module.infinitary_sum(fam)
    except DivergentSumError:
        with pytest.raises(DivergentSumError):
            sum_eval_from_lim(module, fam)
        return
    assert sum_eval_from_lim(module, fam) == direct


def test_restrict_sum():
    fam = PwcSeq.from_tuple(((1,), (1,), (1,)))
    assert restrict_sum(Z4, fam, from_int(3)) == (3,)
    assert restrict_sum(Z4, fam, OMEGA) == (3,)
    assert restrict_sum(Z4, fam, parse_ordinal("w*2+5")) == (3,)
    with pytest.raises(LengthMismatchError):
        restrict_sum(Z4, fam, from_int(2))


@settings(max_examples=80, deadline=None)
@given(pwc_over(), ordinals())
def test_restrict_sum_is_sum_of_zero_padding(pair, delta):
    module, fam = pair
    alpha = fam.length + delta
    pad = PwcSeq.constant(module.zero(), left_subtract(fam.length, alpha))
    try:
        direct = module.infinitary_sum(fam.concat(pad))
    except DivergentSumError:
        with pytest.raises(DivergentSumError):
            restrict_sum(module, fam, alpha)
        return
    assert restrict_sum(module, fam, alpha) == direct


# -- one pass against the prefix recursion -------------------------------------------
# The references evaluate the recursion literally: every inner limit is
# recomputed from its prefix, and sums are peeled one point at a time.  They
# are exponential in the pieces and linear in the coefficients, so they only
# run on small families.

def _reference_lim_eval(module, fam):
    if fam.length.is_zero:
        return module.zero()
    zero = module.zero()
    support = []
    for lo, hi, v in fam.pieces():
        d = module.sub(v, _reference_lim_eval(module, fam.prefix(lo)))
        if d != zero:
            support.append((lo, d))
        if module.is_finite and lo + ONE < hi:
            assert _reference_lim_eval(module, fam.prefix(lo + ONE)) == v
    return module.infinitary_sum(
        PwcSeq.from_support(support, fam.length, zero))


def _reference_sum(module, fam):
    tail = None
    b = fam.length
    while b.is_successor:
        b = b.predecessor()
        last = fam.value_at(b)
        tail = last if tail is None else module.add(last, tail)
        fam = fam.prefix(b)
    core = module.zero()
    if not b.is_zero:
        support = support_if_finite(fam, core)
        if support is None:
            raise DivergentSumError("infinite nonzero part")
        pieces = []
        prev = ZERO
        for x, v in support:
            pieces.append((prev, x + ONE, core))
            core = module.add(core, v)
            prev = x + ONE
        pieces.append((prev, b, core))
        core = _reference_lim_eval(module, PwcSeq.from_pieces(pieces))
    return core if tail is None else module.add(core, tail)


@pytest.mark.parametrize("module", standard_battery(), ids=_case_id)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_one_pass_lim_eval_matches_the_recursion(module, data):
    _, fam = data.draw(pwc_over(st.just(module), max_cuts=4))
    assert (lim_eval(module, fam) == _reference_lim_eval(module, fam)
            == lim_value(module, fam))


@pytest.mark.parametrize("module", standard_battery(), ids=_case_id)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_piecewise_peeling_matches_point_by_point(module, data):
    _, fam = data.draw(pwc_over(st.just(module), max_cuts=4))
    try:
        expected = _reference_sum(module, fam)
    except DivergentSumError:
        with pytest.raises(DivergentSumError):
            sum_eval_from_lim(module, fam)
        return
    assert (sum_eval_from_lim(module, fam) == expected
            == module.infinitary_sum(fam))


_LIMIT_ANCHORS = [parse_ordinal(t) for t in ("0", "w", "w*2", "w^2")]


@st.composite
def runs_in_the_limit_part(draw, module):
    """Families on L + t: after one or two limit points below L a nonzero
    run of 2 or 3 points, zero up to the next one, then t arbitrary
    points.  The infinite stretch from the last run up to L is zero or,
    so that the sum diverges, nonzero."""
    lim_part = draw(st.sampled_from(
        [parse_ordinal(t) for t in ("w", "w*2", "w^2", "w^2+w")]))
    anchors = sorted(draw(st.sets(
        st.sampled_from([a for a in _LIMIT_ANCHORS if a < lim_part]),
        min_size=1, max_size=2)))
    zero = module.zero()
    nonzero = st.sampled_from([x for x in module.elements() if x != zero])
    pieces = []
    at = ZERO
    for anchor in anchors:
        lo = anchor + from_int(draw(st.integers(0, 3)))
        hi = lo + from_int(draw(st.integers(2, 3)))
        pieces += [(at, lo, zero), (lo, hi, draw(nonzero))]
        at = hi
    last = draw(nonzero) if draw(st.booleans()) else zero
    pieces.append((at, lim_part, last))
    for i in range(draw(st.integers(0, 3))):
        lo = lim_part + from_int(i)
        pieces.append((lo, lo + ONE, draw(st.sampled_from(module.elements()))))
    return PwcSeq.from_pieces([p for p in pieces if p[0] < p[1]])


@pytest.mark.parametrize("module", standard_battery(), ids=_case_id)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_runs_inside_a_limit_part_sum_alike_on_every_route(module, data):
    fam = data.draw(runs_in_the_limit_part(module))
    try:
        expected = _reference_sum(module, fam)
    except DivergentSumError:
        lim_part, _ = split_finite(fam.length)
        with pytest.raises(DivergentSumError) as info:
            sum_eval_from_lim(module, fam)
        assert str(info.value) == (f"family over {format_ordinal(lim_part)} "
                                   "has infinite nonzero part")
        with pytest.raises(DivergentSumError):
            module.infinitary_sum(fam)
        return
    assert (sum_eval_from_lim(module, fam) == expected
            == module.infinitary_sum(fam))


def test_free_module_terms_match_the_references():
    free = FreeSymbolic(AdditiveTheory(2), OMEGA)
    w_plus = OMEGA + from_int(3)
    fam = _seq(free, [(0, 1, var(0)), (1, 4, var(1)), (4, w_plus, var(2))])
    assert lim_eval(free, fam) == _reference_lim_eval(free, fam)
    fam = _seq(free, [(0, 1, var(0)), (1, OMEGA, ZERO_TERM),
                      (OMEGA, w_plus, var(1))])
    assert sum_eval_from_lim(free, fam) == _reference_sum(free, fam)


def test_free_module_limit_refuses_a_placeholder_on_several_points():
    # idx names x_g at each point g, so a piece of several points is not
    # constant and leaves a nonzero difference past its start
    free = FreeSymbolic(AdditiveTheory(2), OMEGA)
    for length in ("5", "w", "w+2"):
        fam = _seq(free, [(0, 2, var(1)), (2, parse_ordinal(length), INDEX)])
        with pytest.raises(TranslimError) as info:
            lim_eval(free, fam)
        assert str(info.value) == (
            f"limit recursion: piece [2,{length}) -> idx has a nonzero "
            "difference past its start (running limit (sum 3 [0,1)->(+ x1 "
            "(- zero)) [1,2)->zero [2,3)->(+ idx (- (sum 2 [0,1)->(+ x1 "
            "(- zero)) [1,2)->zero)))))")
    # a placeholder on one point names one variable, as the recursion does
    fam = _seq(free, [(0, 1, INDEX), (1, 3, var(5)), (3, 4, INDEX)])
    assert lim_eval(free, fam) == _reference_lim_eval(free, fam)


def test_free_module_sum_refuses_a_nesting_past_the_recursion_limit():
    # the peeled points nest one + each; two pieces, each under the limit,
    # that together pass it are refused before the term is built
    free = FreeSymbolic(AdditiveTheory(2), OMEGA)
    half = sys.getrecursionlimit() // 2 + 1
    fam = _seq(free, [(0, half, var(0)), (half, 2 * half, var(1))])
    with pytest.raises(ResourceLimitError, match="recursion limit"):
        sum_eval_from_lim(free, fam)
    fam = _seq(free, [(0, 3, var(0)), (3, 5, var(1))])
    assert sum_eval_from_lim(free, fam) == _reference_sum(free, fam)


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)
    monkeypatch.setattr(owner, name, counted)
    return calls


def test_lim_eval_makes_no_recursive_call(monkeypatch):
    bounds = [ZERO] + [parse_ordinal(t) for t in (
        "1", "2", "5", "w", "w+1", "w*2", "w*2+3", "w^2", "w^2+1", "w^2+w")]
    fam = PwcSeq.from_pieces([(lo, hi, ((i * 3 + 1) % 4,))
                              for i, (lo, hi) in enumerate(zip(bounds,
                                                               bounds[1:]))])
    calls = _count_calls(monkeypatch, transfinite, "lim_eval")
    prefixes = _count_calls(monkeypatch, PwcSeq, "prefix")
    assert transfinite.lim_eval(Z4, fam) == lim_value(Z4, fam)
    assert len(calls) == 1
    assert prefixes == []


@pytest.mark.parametrize("alpha_text",
                         ["2000000", "w+3000000", "w^2+w*3+1000000"])
@pytest.mark.parametrize("module, v", [(Z4, (3,)), (Z6, (5,))],
                         ids=_case_id)
def test_sum_peeling_follows_pieces_not_coefficients(monkeypatch, alpha_text,
                                                     module, v):
    alpha = parse_ordinal(alpha_text)
    lim_part, n = split_finite(alpha)
    fam = PwcSeq.constant(module.zero(), lim_part).concat(
        PwcSeq.constant(v, from_int(n)))
    prefixes = _count_calls(monkeypatch, PwcSeq, "prefix")
    lookups = _count_calls(monkeypatch, PwcSeq, "value_at")
    got = sum_eval_from_lim(module, fam)
    assert len(prefixes) <= 1 and lookups == []
    assert got == ((n * v[0]) % module.shape[0],)


def _coefficient_family(c, shape):
    """A family over Z/6 whose zero and infinite pieces carry c, with
    three nonzero one-point pieces below its limit part w*3c.  `shape`
    picks the length: "finite" (no limit part, 2c+1), "limit" (w*3c),
    "successor" (w*3c+2c+1, c+1 of its points nonzero) or "overhang"
    (w*3c+c, the last zero piece infinite)."""
    if shape == "finite":
        return PwcSeq.from_pieces([
            (ZERO, from_int(c), (5,)),
            (from_int(c), from_int(2 * c), (0,)),
            (from_int(2 * c), from_int(2 * c + 1), (1,))])
    pieces = []
    at = ZERO
    for i, v in enumerate(((1,), (2,), (5,))):
        lo = parse_ordinal(f"w*{c * i}+{c}") if i else from_int(c)
        pieces += [(at, lo, (0,)), (lo, lo + ONE, v)]
        at = lo + ONE
    lim_part = parse_ordinal(f"w*{3 * c}")
    if shape == "overhang":
        return PwcSeq.from_pieces(pieces + [
            (at, lim_part + from_int(c), (0,))])
    pieces.append((at, lim_part, (0,)))
    if shape == "successor":
        tail = [(0, c, (4,)), (c, 2 * c, (0,)), (2 * c, 2 * c + 1, (3,))]
        pieces += [(lim_part + from_int(lo), lim_part + from_int(hi), v)
                   for lo, hi, v in tail]
    return PwcSeq.from_pieces(pieces)


@pytest.mark.parametrize("shape",
                         ["finite", "limit", "successor", "overhang"])
def test_sum_through_limits_works_per_piece(monkeypatch, module_ops, shape):
    # the same module operations whatever the coefficients; the pieces
    # are read once, with no prefix and no family rebuilt from its points
    # (the library lists no support: that listing lives in conftest)
    families = [_coefficient_family(c, shape) for c in (3, 10 ** 9)]
    expected = [Z6.infinitary_sum(fam) for fam in families]
    calls = {name: _count_calls(monkeypatch, PwcSeq, name)
             for name in ("prefix", "from_pieces", "from_support")}
    lims = _count_calls(monkeypatch, transfinite, "lim_eval")
    ops = []
    for fam, want in zip(families, expected):
        before = module_ops[0]
        assert transfinite.sum_eval_from_lim(Z6, fam) == want
        ops.append(module_ops[0] - before)
    assert ops[0] == ops[1] <= 2 * len(families[0].values)
    assert calls == {"prefix": [], "from_pieces": [], "from_support": []}
    assert len(lims) == (0 if shape == "finite" else len(families))


def _summed_lim_eval(module, fam):
    """The one-pass evaluator on a finite instance as it was before it
    returned its running value: it rebuilt the difference family with
    from_support and summed it again, point by point."""
    if fam.length.is_zero:
        return module.zero()
    zero = module.zero()
    support = []
    running = zero
    for lo, hi, v in fam.pieces():
        d = module.sub(v, running)
        if d != zero:
            support.append((lo, d))
            running = module.add(running, d)
        if lo + ONE < hi and running != v:
            raise TranslimError("nonzero difference past a piece start")
    return point_by_point_sum(
        module, PwcSeq.from_support(support, fam.length, zero))


@settings(max_examples=150, deadline=None)
@given(random_pwc_over())
def test_running_value_matches_the_summed_differences(drawn):
    module, fam = drawn
    assert lim_eval(module, fam) == _summed_lim_eval(module, fam)


@pytest.mark.parametrize("length", [10, 10 ** 3, 10 ** 6])
def test_lim_eval_makes_three_operations_per_piece(module_ops, length):
    # a subtraction (add and neg) per piece and an add per nonzero
    # difference; the differences are not summed a second time
    k = 8
    fam = lengthy_pieces(k, length)
    assert lim_eval(Z4, fam) == (0,)
    assert module_ops[0] <= 3 * k


class _ForgetfulSub(FiniteMod):
    """A carrier whose subtraction ignores what it subtracts."""

    def sub(self, a, b):
        return a


def test_broken_subtraction_fails_the_interior_check():
    module = _ForgetfulSub(4, (4,))
    fam = _seq(module, [(0, 1, (1,)), (1, OMEGA, (2,))])
    with pytest.raises(TranslimError, match=r"piece \[1,w\)") as info:
        lim_eval(module, fam)
    assert not isinstance(info.value, AssertionError)

# -- limit-term laws ------------------------------------------------------------------

def test_build_lim_term():
    assert build_lim_term(OMEGA) == Lim(OMEGA, basis_family(OMEGA))
    with pytest.raises(InvalidAlphaError):
        build_lim_term(ZERO)


def test_check_constants_fixed():
    t = build_lim_term(OMEGA)
    assert check_constants_fixed(t, OMEGA, Z3) is None
    doctored = scal(2, var(0))
    w = check_constants_fixed(doctored, OMEGA, Z3)
    assert w is not None and w["law"] == "constants-fixed"


def constants_fixed_on_every_element(term, alpha, module):
    """The exhaustive constants check: one evaluation per element."""
    for c in module.elements():
        got = evaluate(term, module, PwcSeq.constant(c, alpha))
        if got != c:
            return {
                "law": "constants-fixed",
                "constant": module.format_element(c),
                "got": module.format_element(got),
            }
    return None


def _witness_or_divergence(check, term, alpha, module):
    try:
        return check(term, alpha, module)
    except DivergentSumError:
        return "divergent"


CONSTANT_SHAPES = [FiniteMod(1, ()), FiniteMod(2, (2,)), FiniteMod(6, (6,)),
                   FiniteMod(4, (2, 4)), FiniteMod(4, (4, 2)),
                   FiniteMod(6, (1, 6)), FiniteMod(2, (2, 2, 2)),
                   FiniteMod(9, (3, 9))]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(CONSTANT_SHAPES),
       st.sampled_from([from_int(1), from_int(3), OMEGA, OMEGA + from_int(2),
                        OMEGA + OMEGA]).flatmap(
           lambda a: st.tuples(st.just(a), terms_over(a))))
def test_constants_on_generators_match_every_element(module, drawn):
    alpha, term = drawn
    assert (_witness_or_divergence(check_constants_fixed, term, alpha, module)
            == _witness_or_divergence(constants_fixed_on_every_element,
                                      term, alpha, module))


def test_constants_check_keeps_the_exhaustive_loop_off_finite_modules():
    free = FreeSymbolic(AdditiveTheory(2), OMEGA)
    with pytest.raises(InfiniteCarrierError):
        check_constants_fixed(build_lim_term(OMEGA), OMEGA, free)


def test_check_prefix_independence():
    t = build_lim_term(OMEGA)
    a = _seq(Z2, [(0, 1, (1,)), (1, OMEGA, (0,))])
    b = PwcSeq.constant((0,), OMEGA)
    assert check_prefix_independence(t, Z2, a, b, from_int(1)) is None
    w = check_prefix_independence(var(0), Z2, a, b, from_int(1))
    assert w is not None and w["law"] == "prefix-independence"
    assert w["value_a"] == "1" and w["value_b"] == "0"


def test_verify_limit_term_passes_canonical():
    for alpha in (from_int(1), from_int(4), OMEGA, OMEGA + from_int(3)):
        report = verify_limit_term(build_lim_term(alpha), alpha, Z6, trials=40)
        assert report.passed
        assert report.witness is None
        assert report.trials == 40
        assert report.to_json()["alpha"] == report.to_json()["alpha"]


def test_verify_limit_term_rejects_pretenders():
    report = verify_limit_term(var(0), OMEGA, Z2, trials=200)
    assert report.constants_fixed
    assert not report.prefix_independence
    assert report.witness["law"] == "prefix-independence"
    report = verify_limit_term(scal(2, var(0)), OMEGA, Z3, trials=10)
    assert not report.constants_fixed
    assert not report.passed


def test_verify_limit_term_validates_input():
    with pytest.raises(InvalidAlphaError):
        verify_limit_term(ZERO_TERM, ZERO, Z2)
    with pytest.raises(UnboundVariableError):
        verify_limit_term(var(5), from_int(3), Z2)
    fin = FiniteMod(2, (2,), infinitary=False)
    with pytest.raises(TheoryMismatchError):
        verify_limit_term(build_lim_term(OMEGA), OMEGA, fin)


# -- finitary existence verdicts -------------------------------------------------------

def test_refuter_positive_cases():
    v = refute_limit_term_finitary(1, OMEGA)
    assert v.exists and v.witness_term == ZERO_TERM
    v = refute_limit_term_finitary(3, OMEGA + from_int(1))
    assert v.exists and v.witness_term == Var(OMEGA)
    assert verify_limit_term(
        v.witness_term, OMEGA + from_int(1), Z3, trials=60).passed
    with pytest.raises(ValueError):
        v.challenge(var(0))
    with pytest.raises(InvalidAlphaError):
        refute_limit_term_finitary(2, ZERO)


def test_refuter_negative_case_defeats_candidates():
    v = refute_limit_term_finitary(3, OMEGA)
    assert not v.exists
    # coefficients 1 + 2 = 0 in Z/3: the constant family at 1 is moved
    w = v.challenge(App("+", (var(0), scal(2, var(1)))))
    assert w.kind == "constants"
    ok, details = validate_refutation(w, App("+", (var(0), scal(2, var(1)))))
    assert ok and details is None
    # coefficients sum to 1: agreement past the term's last variable is broken
    v2 = refute_limit_term_finitary(2, OMEGA)
    t = App("+", (var(0), App("+", (var(1), var(2)))))
    w2 = v2.challenge(t)
    assert w2.kind == "prefix"
    assert w2.beta == from_int(3)
    ok, details = validate_refutation(w2, t)
    assert ok and details is None


def test_challenge_checks_the_candidate():
    v = refute_limit_term_finitary(2, OMEGA)
    with pytest.raises(TheoryMismatchError):
        v.challenge(sum_term(OMEGA))
    with pytest.raises(UnboundVariableError):
        v.challenge(Var(OMEGA))


def test_validate_refutation_rejects_doctored_witness():
    v = refute_limit_term_finitary(3, OMEGA)
    t = App("+", (var(0), scal(2, var(1))))
    w = v.challenge(t)
    doctored = transfinite.RefutationWitness(
        w.kind, w.module, w.assignment_a, w.assignment_b, w.beta,
        w.module.add(w.value_a, (1,)), w.value_b, w.expected)
    ok, details = validate_refutation(doctored, t)
    assert not ok
    assert details["kind"] == "constants"
    # a witness for one term does not transfer to another
    ok, _ = validate_refutation(w, var(0))
    assert not ok


def test_challenge_over_battery_of_candidates():
    for n in (2, 3, 4, 6):
        v = refute_limit_term_finitary(n, OMEGA)
        for t in (var(0), scal(2, var(3)),
                  App("+", (var(0), var(1))),
                  App("-", (var(2),)),
                  ZERO_TERM):
            w = v.challenge(t)
            ok, details = validate_refutation(w, t)
            assert ok, details


# -- the formal Lim node matches the recursion ----------------------------------------

def test_lim_node_evaluation_matches_lim_eval():
    t = build_lim_term(OMEGA)
    fam = _seq(Z4, [(0, 5, (1,)), (5, OMEGA, (3,))])
    assert evaluate(t, Z4, fam) == lim_eval(Z4, fam) == (3,)


def test_lim_term_substitution_collapses_constant_family():
    # substituting the constant assignment at x1 gives the limit of a
    # constant family, which is just the value of x1
    t = build_lim_term(OMEGA)
    sigma = PwcSeq.constant(var(1), OMEGA)
    s = substitute(t, sigma)
    assert s == Lim(OMEGA, PwcSeq.constant(var(1), OMEGA))
    fam = _seq(Z4, [(0, 2, (2,)), (2, OMEGA, (1,))])
    assert evaluate(s, Z4, fam) == fam.value_at(from_int(1)) == (2,)
