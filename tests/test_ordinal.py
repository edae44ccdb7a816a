import functools

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from translim import (
    OMEGA,
    ONE,
    ZERO,
    OrdinalUnderflowError,
    ParseError,
    ResourceLimitError,
    format_ordinal,
    from_int,
    left_subtract,
    omega_power,
    parse_ordinal,
    sample_points_below,
)
from translim.ordinal import (
    Ordinal,
    compare,
    exponents_in,
    interval_cardinality,
    split_finite,
)

from conftest import ordinals


def test_parse_examples():
    assert parse_ordinal("0") == ZERO
    assert parse_ordinal("7") == from_int(7)
    assert parse_ordinal("w") == OMEGA
    assert parse_ordinal("w*3") == omega_power(ONE, 3)
    assert parse_ordinal("w^2+w+1") == (
        omega_power(from_int(2)) + OMEGA + ONE)
    assert parse_ordinal("w^(w+1)*2+5") == (
        omega_power(OMEGA + ONE, 2) + from_int(5))


@pytest.mark.parametrize("bad", ["", "w^", "1+", "+1", "x", "2*3", "w**2",
                                 "w^2,"])
def test_parse_rejects(bad):
    with pytest.raises(ParseError):
        parse_ordinal(bad)


def test_parse_normalizes_sums():
    # input sums are evaluated, so the result is always in normal form
    assert format_ordinal(parse_ordinal("w+w^2")) == "w^2"
    assert format_ordinal(parse_ordinal("w^2+w^2")) == "w^2*2"
    assert parse_ordinal("w*0") == ZERO
    assert format_ordinal(parse_ordinal("3+w+1")) == "w+1"


@given(ordinals())
def test_format_parse_round_trip(a):
    assert parse_ordinal(format_ordinal(a)) == a


@given(ordinals(), ordinals(), ordinals())
def test_addition_associative(a, b, c):
    assert (a + b) + c == a + (b + c)


@given(ordinals(), ordinals())
def test_addition_strictly_monotone_right(a, b):
    if not b.is_zero:
        assert a < a + b
    else:
        assert a + b == a


def test_absorption():
    assert from_int(3) + OMEGA == OMEGA
    assert parse_ordinal("w+3") + OMEGA == parse_ordinal("w*2")
    assert parse_ordinal("w^2+w") + omega_power(from_int(2)) == \
        parse_ordinal("w^2*2")


@given(ordinals(), ordinals())
def test_left_subtract_is_inverse(a, b):
    if b < a or b == a:
        g = left_subtract(b, a)
        assert b + g == a
    else:
        with pytest.raises(OrdinalUnderflowError):
            left_subtract(b, a)


@given(ordinals(), ordinals())
def test_compare_total(a, b):
    c = compare(a, b)
    assert c in (-1, 0, 1)
    assert (c == 0) == (a == b)
    assert (c == -1) == (a < b)
    assert (c == 1) == (b < a)


def cnf_compare(a, b):
    """Term-by-term CNF comparison (the old hand-written comparator):
    first differing exponent, then coefficient, then the longer CNF."""
    for (e1, c1), (e2, c2) in zip(a, b):
        k = cnf_compare(e1, e2)
        if k != 0:
            return k
        if c1 != c2:
            return -1 if c1 < c2 else 1
    n1, n2 = len(a), len(b)
    if n1 == n2:
        return 0
    return -1 if n1 < n2 else 1


@given(ordinals(max_depth=3, max_terms=4), ordinals(max_depth=3, max_terms=4))
def test_tuple_order_matches_the_cnf_comparator(a, b):
    k = cnf_compare(a, b)
    assert compare(a, b) == k
    assert (a < b, a <= b, a > b, a >= b, a == b) == (
        k < 0, k <= 0, k > 0, k >= 0, k == 0)
    assert sorted([a, b]) == ([a, b] if k <= 0 else [b, a])


@given(st.lists(ordinals(max_depth=3, max_terms=4), max_size=8))
def test_sorted_matches_the_cnf_comparator(xs):
    assert sorted(xs) == sorted(xs, key=functools.cmp_to_key(cnf_compare))


def add_by_cnf_field(a, b):
    """Ordinal.__add__ as written when the CNF was a dataclass field."""
    a_cnf, b_cnf = tuple(a), tuple(b)
    if not b_cnf:
        return a
    if not a_cnf:
        return b
    e = b_cnf[0][0]
    keep = 0
    for exp, _ in a_cnf:
        if exp > e:
            keep += 1
        else:
            break
    merged = b_cnf
    if keep < len(a_cnf) and a_cnf[keep][0] == e:
        merged = ((e, a_cnf[keep][1] + b_cnf[0][1]),) + b_cnf[1:]
    return Ordinal(a_cnf[:keep] + merged)


def left_subtract_by_cnf_field(b, a):
    """left_subtract as written when the CNF was a dataclass field."""
    b_cnf, a_cnf = tuple(b), tuple(a)
    j = 0
    while j < len(b_cnf) and j < len(a_cnf) and b_cnf[j] == a_cnf[j]:
        j += 1
    if j == len(b_cnf):
        return Ordinal(a_cnf[j:])
    if j == len(a_cnf):
        raise OrdinalUnderflowError(f"{b} > {a}")
    (eb, cb), (ea, ca) = b_cnf[j], a_cnf[j]
    if eb > ea:
        raise OrdinalUnderflowError(f"{b} > {a}")
    if eb < ea:
        return Ordinal(a_cnf[j:])
    if cb >= ca:
        raise OrdinalUnderflowError(f"{b} > {a}")
    return Ordinal(((ea, ca - cb),) + a_cnf[j + 1:])


@given(ordinals(max_depth=3, max_terms=4), ordinals(max_depth=3, max_terms=4))
def test_add_and_left_subtract_match_the_cnf_field_bodies(a, b):
    total = a + b
    assert type(total) is Ordinal and total == add_by_cnf_field(a, b)
    for lo, hi in ((a, b), (b, a), (a, total)):
        try:
            expected = left_subtract_by_cnf_field(lo, hi)
        except OrdinalUnderflowError:
            with pytest.raises(OrdinalUnderflowError):
                left_subtract(lo, hi)
        else:
            got = left_subtract(lo, hi)
            assert type(got) is Ordinal and got == expected


@given(st.lists(ordinals(max_depth=2, max_terms=2, max_coeff=2),
                min_size=2, max_size=6))
def test_equal_ordinals_hash_alike(xs):
    for a in xs:
        again = parse_ordinal(format_ordinal(a))
        assert again == a and hash(again) == hash(a)
        for b in xs:
            if a == b:
                assert hash(a) == hash(b)


@pytest.mark.parametrize("operation", [
    lambda: OMEGA * 2,
    lambda: 2 * OMEGA,
    lambda: () + OMEGA,
    lambda: OMEGA + (),
    lambda: OMEGA < (1,),
    lambda: OMEGA + 1,
    lambda: 1 + OMEGA,
], ids=["omega*2", "2*omega", "()+omega", "omega+()", "omega<(1,)",
        "omega+1", "1+omega"])
def test_tuple_operators_are_not_ordinal_operators(operation):
    # concatenation and repetition are not ordinal sum and product, and an
    # int is not an ordinal (from_int converts one)
    with pytest.raises(TypeError):
        operation()


@given(ordinals(), ordinals())
def test_classification_partition(a, b):
    # zero, successor, or limit: every smaller b leaves room for b + 1
    assert not (a.is_zero and a.is_successor)
    if a.is_successor:
        assert a.predecessor() + ONE == a
    else:
        with pytest.raises(OrdinalUnderflowError):
            a.predecessor()
        if b < a:
            assert b + ONE < a


@given(ordinals())
def test_finite_round_trip(a):
    if a.is_finite:
        assert from_int(a.to_int()) == a
    else:
        assert OMEGA < a or OMEGA == a


@given(ordinals())
def test_sample_points_inside(alpha):
    pts = sample_points_below(alpha)
    assert pts == sorted(pts)
    assert len(set(pts)) == len(pts)
    for p in pts:
        assert ONE < p or ONE == p
        assert p < alpha


def test_sample_points_examples():
    assert sample_points_below(ZERO) == []
    assert sample_points_below(ONE) == []
    assert sample_points_below(from_int(2)) == [ONE]
    w2 = parse_ordinal("w*2")
    pts = sample_points_below(w2)
    assert OMEGA in pts and OMEGA + ONE in pts and ONE in pts


def sample_points_by_construction(alpha):
    """The grid rebuilt on every call: the reference for the cached one."""
    if alpha <= ONE:
        return []
    pts = {ONE, from_int(2)}
    acc = ZERO
    for e, c in alpha:
        for k in range(1, c + 1):
            pts.add(acc + omega_power(e, k))
        acc = acc + omega_power(e, c)
    for e in exponents_in(alpha):
        pts.add(omega_power(e))
    pts |= {p + ONE for p in pts}
    return sorted(p for p in pts if ONE <= p < alpha)


@given(ordinals(max_depth=3))
@settings(max_examples=200)
def test_sample_points_agree_with_the_uncached_grid(alpha):
    expected = sample_points_by_construction(alpha)
    assert sample_points_below(alpha) == expected
    assert sample_points_below(alpha) == expected  # a cache hit, too


def test_sample_points_are_a_fresh_list_each_call():
    alpha = parse_ordinal("w^2+w*3+2")
    first = sample_points_below(alpha)
    expected = list(first)
    first.append(alpha)
    first.reverse()
    assert sample_points_below(alpha) == expected
    assert sample_points_below(alpha) is not sample_points_below(alpha)


def test_sample_grid_stays_within_the_enumeration_limit():
    # the grid of w*100000 (check limterm --alpha w*100000) still lists
    assert len(sample_points_below(parse_ordinal("w*100000"))) == 200001
    # two points per unit of an infinite coefficient would pass 2^20
    with pytest.raises(ResourceLimitError, match="grid below w\\*524289 "):
        sample_points_below(parse_ordinal("w*524289"))


def test_interval_cardinality():
    assert interval_cardinality(ZERO, from_int(4)) == 4
    assert interval_cardinality(OMEGA, OMEGA + from_int(2)) == 2
    assert interval_cardinality(ZERO, OMEGA) is None
    assert interval_cardinality(OMEGA, parse_ordinal("w*2")) is None


def _shared_limit_part(a, m, n):
    """a's limit part plus m, and plus n: a pair inside one limit part."""
    lim_part, _ = split_finite(a)
    return lim_part + from_int(m), lim_part + from_int(n)


@given(st.one_of(
    st.tuples(ordinals(), ordinals()),
    st.builds(_shared_limit_part, ordinals(), st.integers(0, 10 ** 9),
              st.integers(0, 10 ** 9))))
def test_interval_cardinality_matches_left_subtraction(pair):
    b, e = pair
    try:
        d = left_subtract(b, e)
    except OrdinalUnderflowError as exc:
        with pytest.raises(OrdinalUnderflowError) as info:
            interval_cardinality(b, e)
        assert str(info.value) == str(exc)
        return
    assert interval_cardinality(b, e) == (d.to_int() if d.is_finite
                                          else None)



def test_split_finite_examples():
    assert split_finite(ZERO) == (ZERO, 0)
    assert split_finite(from_int(5)) == (ZERO, 5)
    assert split_finite(OMEGA) == (OMEGA, 0)
    assert split_finite(parse_ordinal("w^2+w*3+7")) == (
        parse_ordinal("w^2+w*3"), 7)


@given(ordinals())
def test_split_finite_is_limit_plus_natural(a):
    lim_part, n = split_finite(a)
    assert lim_part + from_int(n) == a
    assert not lim_part.is_successor

@given(ordinals())
@settings(max_examples=40)
def test_exponents_close_under_recursion(a):
    exps = exponents_in(a)
    for e, _ in a:
        assert e in exps
    for e in exps:
        assert exponents_in(e) <= exps
