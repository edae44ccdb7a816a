"""Term algebra: textual form, checking, substitution laws, evaluation."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import battery_modules, term_families, terms_over

from translim import (
    INDEX,
    OMEGA,
    ZERO,
    ZERO_TERM,
    AdditiveTheory,
    App,
    DivergentSumError,
    FiniteMod,
    FreeSymbolic,
    LengthMismatchError,
    Lim,
    ParseError,
    PwcSeq,
    Sum,
    TheoryMismatchError,
    TranslimError,
    UnboundVariableError,
    Var,
    basis_family,
    check_term,
    evaluate,
    format_term,
    from_int,
    parse_instance,
    parse_ordinal,
    parse_term,
    sample_points_below,
    scal,
    substitute,
    substitute_family,
    sum_term,
    var,
    variable_ceiling,
)
from translim import terms
from translim.terms import (
    eval_family,
    mentions_index,
)

Z2 = parse_instance("Z/2")
Z3 = parse_instance("Z/3")
Z4 = parse_instance("Z/4")
TH2 = AdditiveTheory(2)
W2 = OMEGA + from_int(2)


# -- strategies -----------------------------------------------------------------

TERM_ALPHAS = st.sampled_from(
    [from_int(1), from_int(4), OMEGA, W2, OMEGA + OMEGA])


@st.composite
def assignments_over(draw, alpha, depth=1):
    """Term-valued assignments of length alpha, placeholder convention."""
    return draw(term_families(alpha, alpha, depth))


@st.composite
def element_families(draw, module, alpha):
    pts = [p for p in sample_points_below(alpha) if p < alpha]
    cuts = sorted(set(draw(st.lists(st.sampled_from(pts), max_size=2))
                  if pts else []))
    bounds = [ZERO] + cuts + [alpha]
    elems = st.sampled_from(module.elements())
    return PwcSeq.from_pieces(
        [(lo, hi, draw(elems)) for lo, hi in zip(bounds, bounds[1:])])


def _eval_or_divergence(t, module, assignment):
    try:
        return ("value", evaluate(t, module, assignment))
    except DivergentSumError:
        return ("divergent",)


# -- textual form ----------------------------------------------------------------

def test_parse_examples():
    assert parse_term("(+ x0 x5)") == App("+", (var(0), var(5)))
    assert parse_term("(scal 3 x1)") == scal(3, var(1))
    assert parse_term("zero") == ZERO_TERM
    assert parse_term("idx") == INDEX
    assert parse_term("xw+1") == Var(OMEGA + from_int(1))
    assert parse_term("(- (+ x0 zero))") == App("-", (App("+", (var(0), ZERO_TERM)),))
    t = parse_term("(sum w [0,2)->x0 [2,w)->zero)")
    assert t == Sum(OMEGA, PwcSeq.from_pieces(
        [(ZERO, from_int(2), var(0)), (from_int(2), OMEGA, ZERO_TERM)]))
    assert parse_term("(lim w [0,w)->idx)") == Lim(OMEGA, basis_family(OMEGA))


def test_parse_free_signature_constants():
    t = parse_term("(f c c)")
    assert t == App("f", (App("c", ()), App("c", ())))
    assert parse_term("c") == App("c", ())
    assert format_term(t) == "(f c c)"
    with pytest.raises(TheoryMismatchError):
        parse_term("(f c c)", TH2)


@pytest.mark.parametrize("text", [
    "",
    "(",
    "()",
    "(+ x0",
    "(+ x0 x1) x2",
    "(scal q x0)",
    "(sum w [0,2->x0)",
    "(sum w [0 2)->x0)",
    "(lim w [0,w)->idx",
])
def test_parse_rejects(text):
    with pytest.raises(ParseError):
        parse_term(text)


@pytest.mark.parametrize("text,message", [
    ("(sum w [0,w", "unterminated interval (at position 7)"),
    ("(sum w [0,w) 1)", "interval must be followed by '->' (at position 12)"),
    ("(sum w [0,w->idx)", "expected ')' (at position 11)"),
    ("(sum w^(w+1) [0,w^(w+1)) idx)",
     "interval must be followed by '->' (at position 24)"),
])
def test_interval_errors_name_their_position(text, message):
    with pytest.raises(ParseError) as info:
        parse_term(text)
    assert str(info.value) == message


def test_intervals_close_at_the_balancing_parenthesis():
    t = parse_term("(lim w^(w+1) [0,w^(w+1))->idx)")
    assert t == Lim(parse_ordinal("w^(w+1)"),
                    basis_family(parse_ordinal("w^(w+1)")))


def test_parse_declared_length_must_match_pieces():
    with pytest.raises(LengthMismatchError):
        parse_term("(sum w [0,2)->x0)")


def test_format_examples():
    assert format_term(sum_term(OMEGA)) == "(sum w [0,w)->idx)"
    assert format_term(scal(2, var(1))) == "(scal 2 x1)"
    assert format_term(Lim(ZERO, PwcSeq.empty())) == "(lim 0)"
    assert format_term(Var(OMEGA)) == "xw"


@settings(max_examples=80, deadline=None)
@given(TERM_ALPHAS.flatmap(lambda a: terms_over(a)))
def test_parse_format_round_trip(t):
    assert parse_term(format_term(t)) == t


# -- node construction and checking ----------------------------------------------

def test_node_length_must_match_family():
    with pytest.raises(LengthMismatchError):
        Sum(OMEGA, PwcSeq.constant(INDEX, from_int(3)))
    with pytest.raises(LengthMismatchError):
        Lim(from_int(3), basis_family(OMEGA))


def test_check_term_arity():
    with pytest.raises(TheoryMismatchError):
        check_term(TH2, App("+", (var(0),)))
    with pytest.raises(TheoryMismatchError):
        check_term(TH2, App("nope", ()))
    with pytest.raises(TheoryMismatchError):
        check_term(TH2, App("+", (var(0), var(1), var(2))))


def test_check_term_rejects_nodes_under_finitary_theory():
    fin = AdditiveTheory(2, infinitary=False)
    with pytest.raises(TheoryMismatchError):
        check_term(fin, sum_term(from_int(2)))
    with pytest.raises(TheoryMismatchError):
        parse_term("(lim w [0,w)->idx)", fin)
    check_term(fin, App("+", (var(0), scal(3, var(1)))))


def test_check_term_variable_limit():
    check_term(TH2, var(4), variable_limit=from_int(5))
    with pytest.raises(UnboundVariableError):
        check_term(TH2, var(5), variable_limit=from_int(5))
    with pytest.raises(UnboundVariableError):
        parse_term("(+ x0 x1)", TH2, variable_limit=from_int(1))


def test_check_term_bounds_placeholder_positions():
    check_term(TH2, sum_term(from_int(3)), variable_limit=from_int(3))
    with pytest.raises(UnboundVariableError):
        check_term(TH2, sum_term(OMEGA), variable_limit=from_int(3))
    # a constant family does not touch the positions, only its own variables
    check_term(TH2, Sum(OMEGA, PwcSeq.constant(var(2), OMEGA)),
               variable_limit=from_int(3))


# -- variable accounting -----------------------------------------------------------

def test_variable_ceiling_examples():
    assert variable_ceiling(ZERO_TERM) == ZERO
    assert variable_ceiling(INDEX) == ZERO
    assert variable_ceiling(var(3)) == from_int(4)
    assert variable_ceiling(App("+", (var(1), var(5)))) == from_int(6)
    assert variable_ceiling(sum_term(OMEGA)) == OMEGA
    assert variable_ceiling(Sum(OMEGA, PwcSeq.constant(var(2), OMEGA))) == from_int(3)


@settings(max_examples=80, deadline=None)
@given(TERM_ALPHAS.flatmap(lambda a: terms_over(a)))
def test_variable_ceiling_is_a_valid_limit(t):
    check_term(TH2, t, variable_limit=variable_ceiling(t))


def collapse_to_one(t):
    """Every variable of t replaced by Var(0), through substitute."""
    return substitute(t, PwcSeq.constant(Var(ZERO), variable_ceiling(t)))


def test_collapse_to_one():
    assert (collapse_to_one(App("+", (var(1), var(5))))
            == App("+", (var(0), var(0))))
    assert collapse_to_one(sum_term(OMEGA)) == Sum(
        OMEGA, PwcSeq.constant(Var(ZERO), OMEGA))
    c = collapse_to_one(scal(3, var(7)))
    assert variable_ceiling(c) <= from_int(1)


# -- evaluation --------------------------------------------------------------------

def test_evaluate_leaves_and_apps():
    a = PwcSeq.from_tuple(((1,), (2,), (3,)))
    assert evaluate(var(1), Z4, a) == (2,)
    assert evaluate(ZERO_TERM, Z4, a) == (0,)
    assert evaluate(App("+", (var(0), var(2))), Z4, a) == (0,)
    assert evaluate(scal(3, var(1)), Z4, a) == (2,)
    assert evaluate(App("-", (var(2),)), Z4, a) == (1,)


def test_evaluate_sum_and_lim():
    a = PwcSeq.from_tuple(((1,), (2,), (3,)))
    assert evaluate(sum_term(from_int(3)), Z4, a) == (2,)
    ones = PwcSeq.constant((1,), OMEGA)
    assert evaluate(Lim(OMEGA, basis_family(OMEGA)), Z4, ones) == (1,)
    tail_zero = PwcSeq.from_pieces(
        [(ZERO, from_int(3), (1,)), (from_int(3), OMEGA, (0,))])
    assert evaluate(sum_term(OMEGA), Z4, tail_zero) == (3,)
    assert evaluate(Lim(ZERO, PwcSeq.empty()), Z4, PwcSeq.empty()) == (0,)


def test_evaluate_divergent_sum_errors():
    with pytest.raises(DivergentSumError):
        evaluate(sum_term(OMEGA), Z2, PwcSeq.constant((1,), OMEGA))


def test_evaluate_nodes_need_infinitary_theory():
    fin = FiniteMod(2, (2,), infinitary=False)
    a = PwcSeq.from_tuple(((1,), (1,)))
    with pytest.raises(TheoryMismatchError):
        evaluate(sum_term(from_int(2)), fin, a)
    with pytest.raises(TheoryMismatchError):
        evaluate(Lim(from_int(2), basis_family(from_int(2))), fin, a)


@pytest.mark.parametrize(
    "module", [Z2, parse_instance("free(add-inf mod 2, w)")],
    ids=["Z/2", "free"])
@pytest.mark.parametrize("term", [
    App("+", (var(0),)), App("-", (var(0), var(1))), App("foo", ())],
    ids=["plus-one-arg", "minus-two-args", "unknown-op"])
def test_evaluate_checks_arity_on_every_module(module, term):
    # evaluate takes unchecked terms; every module dispatches through
    # ModuleInstance.apply, which checks the arity first
    a = PwcSeq.constant(module.zero(), OMEGA)
    with pytest.raises(TheoryMismatchError):
        evaluate(term, module, a)


def _scalars_reduced(t, n):
    if type(t) is not App:
        return t
    op = ("scal", t.op[1] % n) if isinstance(t.op, tuple) else t.op
    return App(op, tuple(_scalars_reduced(a, n) for a in t.args))


def app_var_terms(alpha):
    leaves = (st.sampled_from([ZERO] + sample_points_below(alpha)).map(Var)
              | st.just(ZERO_TERM))
    return st.recursive(leaves, lambda kids: st.one_of(
        st.tuples(kids, kids).map(lambda ab: App("+", ab)),
        kids.map(lambda a: App("-", (a,))),
        st.tuples(st.integers(0, 9), kids).map(lambda rt: scal(*rt))),
        max_leaves=6)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 6),
       TERM_ALPHAS.flatmap(lambda a: st.tuples(app_var_terms(a), st.just(a))))
def test_free_module_evaluates_a_term_on_its_basis_to_itself(n, pair):
    # the basis family names each variable at its own position, through
    # the placeholder, so no idx may survive into the value
    t, alpha = pair
    free = FreeSymbolic(AdditiveTheory(n), alpha)
    assert evaluate(t, free, basis_family(alpha)) == _scalars_reduced(t, n)


def test_evaluate_unbound_errors():
    a = PwcSeq.from_tuple(((1,), (2,)))
    with pytest.raises(UnboundVariableError):
        evaluate(var(5), Z4, a)
    with pytest.raises(UnboundVariableError):
        evaluate(INDEX, Z4, a)
    with pytest.raises(UnboundVariableError):
        eval_family(basis_family(OMEGA), Z4, a)


def test_the_bare_placeholder_takes_the_assignment_unevaluated(monkeypatch):
    # a body that only names its position is the assignment there; any
    # other body naming it is evaluated once per piece it is cut into
    sigma = PwcSeq.from_pieces([
        (ZERO, from_int(2), scal(2, INDEX)),
        (from_int(2), OMEGA, INDEX),
    ])
    a = PwcSeq.from_pieces([(ZERO, from_int(3), (1,)),
                            (from_int(3), from_int(5), (2,)),
                            (from_int(5), OMEGA, (0,))])
    calls = []
    walk = terms.evaluate

    def counted(t, *args, **kwargs):
        calls.append(t)
        return walk(t, *args, **kwargs)

    monkeypatch.setattr(terms, "evaluate", counted)
    assert eval_family(sigma, Z3, a).pieces() == [
        (ZERO, from_int(2), (2,)), (from_int(2), from_int(3), (1,)),
        (from_int(3), from_int(5), (2,)), (from_int(5), OMEGA, (0,))]
    assert calls == [scal(2, INDEX), INDEX]


# -- substitution -------------------------------------------------------------------

def test_substitute_identity_concrete():
    t = parse_term("(sum w [0,2)->x0 [2,w)->idx)")
    assert substitute(t, basis_family(OMEGA)) == t
    assert substitute(INDEX, basis_family(OMEGA)) is INDEX


def test_substitute_positional_value_into_var():
    sigma = PwcSeq.constant(scal(2, INDEX), OMEGA)
    assert substitute(var(3), sigma) == scal(2, var(3))


def test_substitute_refines_families_positionally():
    sigma = PwcSeq.from_pieces([
        (ZERO, from_int(2), scal(2, INDEX)),
        (from_int(2), OMEGA, INDEX),
    ])
    t = substitute(sum_term(OMEGA), sigma)
    assert t == Sum(OMEGA, sigma)
    a = PwcSeq.from_pieces(
        [(ZERO, from_int(3), (1,)), (from_int(3), OMEGA, (0,))])
    assert evaluate(t, Z3, a) == evaluate(sum_term(OMEGA), Z3,
                                          eval_family(sigma, Z3, a)) == (2,)


def test_substitute_unbound():
    short = PwcSeq.from_tuple((var(0), var(1), var(2)))
    with pytest.raises(UnboundVariableError):
        substitute(var(5), short)
    with pytest.raises(UnboundVariableError):
        substitute_family(basis_family(OMEGA), short)


@settings(max_examples=60, deadline=None)
@given(TERM_ALPHAS.flatmap(
    lambda a: st.tuples(terms_over(a), st.just(a))))
def test_substitute_identity_law(pair):
    t, alpha = pair
    assert substitute(t, basis_family(alpha)) == t


@settings(max_examples=60, deadline=None)
@given(TERM_ALPHAS.flatmap(
    lambda a: st.tuples(terms_over(a), assignments_over(a),
                        assignments_over(a))))
def test_substitute_associativity_law(triple):
    t, sigma, tau = triple
    lhs = substitute(substitute(t, sigma), tau)
    rhs = substitute(t, substitute_family(sigma, tau))
    assert lhs == rhs


@settings(max_examples=60, deadline=None)
@given(battery_modules,
       TERM_ALPHAS.flatmap(
           lambda a: st.tuples(terms_over(a), assignments_over(a),
                               st.just(a))),
       st.data())
def test_evaluate_respects_substitution(module, triple, data):
    t, sigma, alpha = triple
    a = data.draw(element_families(module, alpha))
    try:
        composed = eval_family(sigma, module, a)
    except DivergentSumError:
        # composing evaluates sigma everywhere; the law is stated on the
        # domain where that is defined
        return
    lhs = _eval_or_divergence(substitute(t, sigma), module, a)
    assert lhs == _eval_or_divergence(t, module, composed)


# -- a Lim node reads its last piece ----------------------------------------------


def reference_lim(term, module, assignment):
    """The Lim branch as it was: the whole evaluated family, then its
    final value (zero on length 0)."""
    fam = eval_family(term.family, module, assignment)
    return module.zero() if fam.length.is_zero else fam.values[-1]


def _value_or_error(fn, *args):
    try:
        return ("value", fn(*args))
    except TranslimError as exc:
        return (type(exc), str(exc))


@settings(max_examples=200, deadline=None)
@given(battery_modules, TERM_ALPHAS, st.data())
def test_lim_node_takes_the_last_value_of_the_evaluated_family(
        module, alpha, data):
    points = sample_points_below(alpha) + [alpha]
    length = data.draw(st.sampled_from(points))
    term = Lim(length, data.draw(term_families(alpha, length, 2)))
    # a shorter assignment leaves some variables unbound, nested sums may
    # diverge: the same first error must come out of the same piece
    a = data.draw(element_families(module, data.draw(st.sampled_from(points))))
    assert (_value_or_error(evaluate, term, module, a)
            == _value_or_error(reference_lim, term, module, a))


def test_lim_node_raises_an_error_in_a_non_final_piece():
    two = from_int(2)
    a = PwcSeq.constant((1,), OMEGA)
    unbound = Lim(two, PwcSeq.from_tuple((var(OMEGA + from_int(5)), var(0))))
    with pytest.raises(UnboundVariableError, match="xw\\+5 not covered"):
        evaluate(unbound, Z4, a)
    divergent = Lim(two, PwcSeq.from_tuple((sum_term(OMEGA), var(0))))
    with pytest.raises(DivergentSumError):
        evaluate(divergent, Z4, a)


def test_lim_node_builds_no_family(monkeypatch):
    term = parse_term("(lim w+2 [0,3)->idx [3,w)->(+ x0 (lim w [0,w)->idx)) "
                      "[w,w+2)->(scal 3 idx))")
    a = PwcSeq.from_pieces([(ZERO, from_int(2), (1,)),
                            (from_int(2), W2, (2,))])
    built = []
    from_pieces = PwcSeq._from_pieces

    def counted(length, pieces):
        built.append(length)
        return from_pieces(length, pieces)

    monkeypatch.setattr(PwcSeq, "_from_pieces", staticmethod(counted))
    assert evaluate(term, Z4, a) == (2,)
    assert built == []


def test_lim_node_names_the_variable_at_its_last_position():
    free = FreeSymbolic(TH2, OMEGA)
    five = from_int(5)
    assert evaluate(Lim(five, basis_family(five)), free,
                    basis_family(five)) == var(4)
    assert evaluate(parse_term("(lim 3 [0,3)->(+ idx x0))"), free,
                    basis_family(five)) == App("+", (var(2), var(0)))
    assert evaluate(Lim(W2, basis_family(W2)), free,
                    basis_family(W2)) == var(OMEGA + from_int(1))
    # a limit length has no last position
    with pytest.raises(UnboundVariableError, match="w has no last position"):
        evaluate(Lim(OMEGA, basis_family(OMEGA)), free, basis_family(OMEGA))


def test_mentions_index_stops_at_nested_families():
    assert mentions_index(App("+", (INDEX, var(0)))) is True
    # a nested node owns its placeholder, so it does not leak outward
    assert mentions_index(sum_term(OMEGA)) is False
    assert mentions_index(App("+", (sum_term(OMEGA), var(0)))) is False
