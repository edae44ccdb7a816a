import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from translim import (
    OMEGA,
    ONE,
    ZERO,
    IndexOutOfRangeError,
    LengthMismatchError,
    ParseError,
    PwcSeq,
    format_pwc,
    from_int,
    parse_pwc,
    parse_ordinal,
    sample_points_below,
)

from conftest import battery_modules, pwc_over, support_if_finite


def seq(text):
    return parse_pwc(text, int)


def test_from_pieces_validates_tiling():
    with pytest.raises(ParseError):
        PwcSeq.from_pieces([(ONE, OMEGA, 5)])  # does not start at 0
    with pytest.raises(ParseError):
        PwcSeq.from_pieces([(ZERO, from_int(2), 1), (from_int(3), OMEGA, 2)])
    with pytest.raises(ParseError):
        PwcSeq.from_pieces([(ZERO, ZERO, 1)])  # empty piece


def test_normal_form_coalesces():
    a = PwcSeq.from_pieces([(ZERO, ONE, 7), (ONE, OMEGA, 7)])
    assert a == PwcSeq.constant(7, OMEGA)
    assert len(a.values) == 1


def test_value_at():
    s = seq("[0,2)->1;[2,w)->0;[w,w+1)->3")
    assert s.value_at(ZERO) == 1
    assert s.value_at(from_int(1)) == 1
    assert s.value_at(from_int(2)) == 0
    assert s.value_at(from_int(100)) == 0
    assert s.value_at(OMEGA) == 3
    with pytest.raises(IndexOutOfRangeError):
        s.value_at(OMEGA + ONE)


def value_at_by_scan(fam, g):
    """Reference lookup: the first piece whose end lies above g."""
    if not g < fam.length:
        raise IndexOutOfRangeError(f"index {g} >= length {fam.length}")
    for i, v in enumerate(fam.values):
        if g < fam.breakpoints[i + 1]:
            return v
    raise AssertionError("breakpoints do not tile the length")


@given(pwc_over(max_cuts=5))
@settings(max_examples=150)
def test_value_at_agrees_with_the_scan(mf):
    # every breakpoint, every grid point and each one's successor
    module, fam = mf
    probes = set(fam.breakpoints) | set(sample_points_below(fam.length))
    probes |= {p + ONE for p in probes}
    for g in probes:
        if g < fam.length:
            assert fam.value_at(g) == value_at_by_scan(fam, g)
        else:
            with pytest.raises(IndexOutOfRangeError):
                fam.value_at(g)


def test_parse_format_round_trip():
    text = "[0,2) -> 1;[2,w) -> 0;[w,w^2) -> 3"
    s = parse_pwc(text, int)
    assert format_pwc(s, str) == text
    assert parse_pwc(format_pwc(s, str), int) == s
    assert parse_pwc("", int) == PwcSeq.empty()
    assert format_pwc(PwcSeq.empty(), str) == "empty"


@given(st.one_of(battery_modules.map(lambda m: (m, PwcSeq.empty())),
                 pwc_over()))
@settings(max_examples=150)
def test_parse_inverts_format(mf):
    # length 0 prints "empty"; bounds like w^(w+1) hold parentheses
    module, fam = mf
    text = format_pwc(fam, module.format_element)
    assert parse_pwc(text, module.parse_element) == fam


@pytest.mark.parametrize("bad", ["[0,2->1", "0,2)->1", "[0,2) 1",
                                 "[0,2)->1;;[2,3)->0", "[0,2)->1 [2,3)->0",
                                 "[2,3)->0", "[0,2)->1;[0,2)->1"])
def test_parse_rejects(bad):
    with pytest.raises(ParseError):
        parse_pwc(bad, int)


@given(pwc_over())
@settings(max_examples=60)
def test_prefix_then_segment_reassembles(mf):
    module, fam = mf
    for b in sample_points_below(fam.length):
        front, back = fam.prefix(b), fam.final_segment(b)
        assert front.concat(back) == fam
        assert front.length == b


@given(pwc_over())
@settings(max_examples=60)
def test_value_respects_restriction(mf):
    module, fam = mf
    for b in sample_points_below(fam.length):
        front, back = fam.prefix(b), fam.final_segment(b)
        if not b.is_zero:
            assert front.value_at(ZERO) == fam.value_at(ZERO)
        assert back.value_at(ZERO) == fam.value_at(b)


@given(pwc_over(max_cuts=5))
@settings(max_examples=60)
def test_clip_tiles_the_window(mf):
    module, fam = mf
    bounds = [ZERO] + sample_points_below(fam.length) + [fam.length]
    for lo in bounds:
        for hi in bounds:
            clipped = fam.clip(lo, hi)
            if not lo < hi:
                assert clipped == []
                continue
            assert clipped[0][0] == lo and clipped[-1][1] == hi
            for (_, b, _), (a, _, _) in zip(clipped, clipped[1:]):
                assert b == a
            assert [b for _, b, _ in clipped[:-1]] == [
                x for x in fam.breakpoints if lo < x < hi]
            for a, b, v in clipped:
                assert a < b and v == fam.value_at(a)


@given(pwc_over(), pwc_over())
@settings(max_examples=60)
def test_zip_map_pointwise(mf, mg):
    module, fam = mf
    _, other = mg
    if fam.length != other.length:
        with pytest.raises(LengthMismatchError):
            fam.zip_map(other, lambda a, b: (a, b))
        return
    z = fam.zip_map(other, lambda a, b: (a, b))
    probes = [ZERO] + sample_points_below(fam.length)
    for p in probes:
        if p < fam.length:
            assert z.value_at(p) == (fam.value_at(p), other.value_at(p))


def test_from_support_and_back():
    alpha = parse_ordinal("w*2")
    entries = [(from_int(3), 7), (OMEGA, 9)]
    s = PwcSeq.from_support(entries, alpha, 0)
    assert s.value_at(from_int(3)) == 7
    assert s.value_at(OMEGA) == 9
    assert s.value_at(from_int(4)) == 0
    assert support_if_finite(s, 0) == entries


def test_from_support_rejects_out_of_range():
    with pytest.raises(IndexOutOfRangeError):
        PwcSeq.from_support([(OMEGA, 3)], OMEGA, 0)


def test_support_if_finite_none_on_infinite():
    # the point listing behind the point-by-point reference sum
    assert support_if_finite(seq("[0,w)->1"), 0) is None
    assert support_if_finite(seq("[0,w)->0"), 0) == []
    assert support_if_finite(seq("[0,3)->1;[3,w)->0"), 0) == [
        (ZERO, 1), (ONE, 1), (from_int(2), 1)]


def test_concat_lengths_and_shift():
    a = seq("[0,2)->1")
    b = seq("[0,w)->4")
    c = a.concat(b)
    assert c.length == parse_ordinal("w")  # 2 + w absorbs
    assert c.value_at(ZERO) == 1
    assert c.value_at(from_int(2)) == 4
    d = b.concat(a)
    assert d.length == parse_ordinal("w+2")
    assert d.value_at(OMEGA) == 1


def test_map_values_keeps_shape():
    s = seq("[0,2)->1;[2,w)->2")
    t = s.map_values(lambda v: v * 10)
    assert t.value_at(ZERO) == 10
    assert t.value_at(from_int(5)) == 20
    assert t.length == s.length


def test_empty_interval_edge():
    assert PwcSeq.constant(3, ZERO) == PwcSeq.empty()
    assert PwcSeq.empty().length == ZERO
    assert PwcSeq.from_tuple(()) == PwcSeq.empty()
    assert PwcSeq.from_tuple((4, 4, 4)) == PwcSeq.constant(4, from_int(3))
