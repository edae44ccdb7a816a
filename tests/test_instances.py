"""Module instances, homomorphism verification, and instance literals."""

import itertools
import math
import random

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from conftest import (battery_modules, battery_or_submodules, lengthy_pieces,
                      point_by_point_sum, random_pwc_over, reference_add,
                      reference_neg, reference_scal, reference_sub)

from translim import (
    OMEGA,
    ZERO,
    AdditiveTheory,
    App,
    DivergentSumError,
    FiniteMod,
    FreeSymbolic,
    Homomorphism,
    InfiniteCarrierError,
    ParseError,
    PwcSeq,
    ResourceLimitError,
    Submodule,
    Sum,
    TheoryMismatchError,
    TranslimError,
    UnboundVariableError,
    ZERO_TERM,
    from_int,
    image,
    is_regular_epi,
    parse_instance,
    parse_pwc,
    parse_theory,
    scal,
    standard_battery,
    sum_term,
    var,
    zero_module,
)
from translim import instances
from translim.diagrams import InverseSystem, limit_object
from translim.errors import ENUMERATION_LIMIT, HomomorphismValidationError
from translim.sampling import (random_hom, random_surjective_system_morphism,
                               random_system)

Z2 = parse_instance("Z/2")
Z4 = parse_instance("Z/4")
Z2xZ4 = parse_instance("Z/2 x Z/4")
Z2m4 = FiniteMod(4, (2,))  # Z/2 carried as a module over Z/4


# -- exhaustive references: every law on every element ------------------------

def exhaustive_hom_laws(dom, cod, f):
    """The four-law table check, one loop per law (the old verifier)."""
    elems = dom.elements()
    if any(x not in f or not cod.contains(f[x]) for x in elems):
        return False
    if f[dom.zero()] != cod.zero():
        return False
    for x in elems:
        if f[dom.neg(x)] != cod.neg(f[x]):
            return False
        for r in range(dom.theory.modulus):
            if f[dom.scal(r, x)] != cod.scal(r, f[x]):
                return False
        for y in elems:
            if f[dom.add(x, y)] != cod.add(f[x], f[y]):
                return False
    return True


def three_law_closure(parent, carrier):
    """Zero, then closure under negation, every scalar and + (the old check)."""
    cs = set(carrier)
    if parent.zero() not in cs:
        return False
    return all(parent.neg(x) in cs
               and all(parent.scal(r, x) in cs
                       for r in range(parent.theory.modulus))
               and all(parent.add(x, y) in cs for y in carrier)
               for x in carrier)


def span(module, elems):
    """Closure of elems and zero under +: the submodule they generate."""
    out = {module.zero()}
    frontier = list(elems)
    while frontier:
        x = frontier.pop()
        if x not in out:
            out.add(x)
            frontier += [module.add(x, y) for y in list(out)]
    return tuple(sorted(out))


@st.composite
def finite_mods(draw, max_size=16, min_size=1, modulus=None):
    """FiniteMod over Z/n (n <= 8 unless given), shapes of divisors (1s
    included) with min_size to max_size elements; min_size=1 admits the
    zero module."""
    n = modulus or draw(st.integers(1, 8))
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    shape = draw(st.lists(st.sampled_from(divisors), max_size=3).filter(
        lambda sh: min_size <= math.prod(sh) <= max_size))
    return FiniteMod(n, tuple(shape))


def _accepts(build):
    try:
        build()
    except (HomomorphismValidationError, ValueError):
        return False
    return True


# -- FiniteMod -----------------------------------------------------------------

def test_finite_mod_shape_constraints():
    with pytest.raises(ValueError):
        FiniteMod(0, ())
    with pytest.raises(ValueError):
        FiniteMod(4, (3,))  # 3 does not divide 4
    FiniteMod(6, (2, 3))


def test_finite_mod_operations():
    m = Z2xZ4
    assert m.modulus == 4
    assert m.zero() == (0, 0)
    assert m.add((1, 3), (1, 2)) == (0, 1)
    assert m.neg((1, 3)) == (1, 1)
    assert m.scal(3, (1, 2)) == (1, 2)
    assert m.sub((0, 1), (1, 3)) == (1, 2)
    assert m.size == 8
    assert m.contains((1, 3)) and not m.contains((2, 0))
    assert not m.contains((1,))
    assert m.generators() == [(1, 0), (0, 1)]
    assert FiniteMod(2, (1, 2)).generators() == [(0, 0), (0, 1)]


@settings(max_examples=60, deadline=None)
@given(finite_mods(max_size=64))
@example(FiniteMod(1, ()))
@example(FiniteMod(1, (1,)))
@example(FiniteMod(2, (1, 2)))
@example(FiniteMod(6, (1, 1, 3)))
def test_size_counts_the_carrier(m):
    assert m.size == len(m.elements())


def test_theory_is_built_once_and_stays_out_of_the_value():
    m, twin = FiniteMod(4, (2, 4)), FiniteMod(4, (2, 4))
    text, key = repr(m), hash(m)
    assert m.theory is m.theory
    assert m.theory == AdditiveTheory(4, True)
    assert FiniteMod(4, (4,), False).theory == AdditiveTheory(4, False)
    assert repr(m) == text == repr(twin)
    assert text == "FiniteMod(modulus=4, shape=(2, 4), infinitary=True)"
    assert hash(m) == key == hash(twin)
    assert m == twin and m != FiniteMod(4, (2, 4), False)
    # so is the order that keys the rank-1 path, 0 at any other rank
    assert [FiniteMod(n, shape).cyclic for n, shape in
            ((4, (4,)), (4, (2,)), (1, (1,)), (1, ()), (4, (2, 4)))] == \
        [4, 2, 1, 0, 0]
    assert repr(FiniteMod(4, (4,))) == \
        "FiniteMod(modulus=4, shape=(4,), infinitary=True)"


@settings(max_examples=60, deadline=None)
@given(finite_mods(max_size=64))
@example(FiniteMod(1, ()))
@example(FiniteMod(2, (1, 2)))
@example(FiniteMod(6, (1, 1, 3)))
def test_generators_are_elements_and_generate(m):
    gens = m.generators()
    assert len(gens) == len(m.shape)
    assert all(m.contains(g) for g in gens)
    assert span(m, gens) == tuple(sorted(m.elements()))


def test_finite_mod_apply_dispatch():
    assert Z4.apply("+", [(1,), (3,)]) == (0,)
    assert Z4.apply(("scal", 3), [(2,)]) == (2,)
    assert Z4.apply("zero", []) == (0,)
    with pytest.raises(TheoryMismatchError):
        Z4.apply("mul", [(1,), (2,)])


def test_finite_mod_literal_and_element_text():
    assert Z4.literal == "Z/4"
    assert Z2xZ4.literal == "Z/2 x Z/4"
    assert Z4.format_element((3,)) == "3"
    assert Z2xZ4.format_element((1, 2)) == "(1,2)"
    assert Z4.parse_element("3") == (3,)
    assert Z4.parse_element("(3)") == (3,)
    assert Z2xZ4.parse_element(" (1, 2) ") == (1, 2)


@pytest.mark.parametrize("module,text", [
    (Z4, "4"),
    (Z4, "x"),
    (Z2xZ4, "1,2"),
    (Z2xZ4, "(1)"),
    (Z2xZ4, "(2,0)"),
])
def test_finite_mod_parse_element_rejects(module, text):
    with pytest.raises(ParseError):
        module.parse_element(text)


def test_finite_mod_element_json_round_trip():
    assert Z2xZ4.element_to_json((1, 2)) == [1, 2]
    assert Z2xZ4.element_from_json([1, 2]) == (1, 2)
    for bad in ([1], [1, 4], (1, 2), [1, "2"], [True, 1], [1, False]):
        with pytest.raises(ParseError):
            Z2xZ4.element_from_json(bad)
    # a JSON boolean is no coordinate, though bool is an int
    assert not Z2xZ4.contains((True, 1)) and not Z2.contains((False,))


@settings(max_examples=40, deadline=None)
@given(battery_modules, st.data())
def test_finite_mod_group_laws(m, data):
    elems = st.sampled_from(m.elements())
    a, b, c = data.draw(elems), data.draw(elems), data.draw(elems)
    assert m.add(a, b) == m.add(b, a)
    assert m.add(m.add(a, b), c) == m.add(a, m.add(b, c))
    assert m.add(a, m.zero()) == a
    assert m.add(a, m.neg(a)) == m.zero()
    assert m.scal(m.modulus, a) == m.zero()
    r = data.draw(st.integers(0, m.modulus))
    s = data.draw(st.integers(0, m.modulus))
    assert m.scal(r, m.scal(s, a)) == m.scal((r * s) % m.modulus, a)
    assert m.scal(r, m.add(a, b)) == m.add(m.scal(r, a), m.scal(r, b))


# coordinates past any order, negative ones included, and tuples of every
# length up to 4 whatever the rank, including the empty tuple
_coordinates = st.integers(-20, 20) | st.integers(-10 ** 30, 10 ** 30)
_operands = st.lists(_coordinates, max_size=4).map(tuple)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.integers(1, 12), max_size=3), st.integers(1, 3),
       _operands, _operands,
       st.integers(-20, 20) | st.integers(-10 ** 40, 10 ** 40))
@example([4], 1, (1,), (3,), -1)
@example([2], 2, (3,), (1,), 3)
@example([1], 1, (5,), (), 7)
@example([6], 1, (), (2,), 0)
@example([2, 2], 1, (1,), (1,), 3)
def test_operations_match_the_comprehensions(shape, cofactor, a, b, r):
    # the modulus is a multiple of every order, not always equal to one
    module = FiniteMod(math.lcm(*shape) * cofactor, tuple(shape))
    assert module.add(a, b) == reference_add(module, a, b)
    assert module.sub(a, b) == reference_sub(module, a, b)
    assert module.neg(a) == reference_neg(module, a)
    assert module.scal(r, a) == reference_scal(module, r, a)


@settings(max_examples=40, deadline=None)
@given(battery_or_submodules())
def test_subtraction_is_adding_the_negative(module):
    elems = module.elements()
    for a in elems:
        for b in elems:
            assert module.sub(a, b) == module.add(a, module.neg(b))


def test_infinitary_sum_partiality():
    tail_zero = PwcSeq.from_pieces(
        [(ZERO, from_int(3), (1,)), (from_int(3), OMEGA, (0,))])
    assert Z4.infinitary_sum(tail_zero) == (3,)
    assert Z4.infinitary_sum(PwcSeq.constant((0,), OMEGA)) == (0,)
    with pytest.raises(DivergentSumError):
        Z4.infinitary_sum(PwcSeq.constant((2,), OMEGA))


def outcome(f, *args):
    """f(*args), or the class and message of the DivergentSumError it
    raises."""
    try:
        return f(*args)
    except DivergentSumError as exc:
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(random_pwc_over())
def test_piecewise_sum_matches_point_by_point(drawn):
    module, fam = drawn
    assert (outcome(module.infinitary_sum, fam)
            == outcome(point_by_point_sum, module, fam))


@pytest.mark.parametrize("length", [10, 10 ** 3, 10 ** 6])
def test_infinitary_sum_makes_two_operations_per_piece(module_ops, length):
    # a scal and an add per nonzero piece, however many points it has
    k = 4
    fam = lengthy_pieces(k, length)
    got = Z4.infinitary_sum(fam)
    assert module_ops[0] <= 2 * k
    assert got == ((length * (1 + 2 + 3)) % 4,)
    with pytest.raises(DivergentSumError):
        Z4.infinitary_sum(lengthy_pieces(k, length, tail=(2,)))


# -- Submodule --------------------------------------------------------------------

def spanned(module, gens):
    """The Submodule that gens span, built as the library builds one."""
    return Submodule(module, set(span(module, gens)), tuple(gens))


def test_submodule_is_the_span_it_is_given():
    even = spanned(Z4, [(2,)])
    assert even.elements() == [(0,), (2,)]
    assert even.generators() == ((2,),)
    assert even.contains((2,)) and not even.contains((1,))
    assert even.literal == "sub[2] of Z/4"
    assert even.format_element((2,)) == "2"
    assert even.parse_element("2") == (2,)


def test_submodule_parses_only_its_own_elements():
    sub, _ = image(Homomorphism.from_generator_images(Z4, Z4, [(2,)]))
    assert sub.parse_element(" 2 ") == (2,)
    with pytest.raises(ParseError, match="not in sub"):
        sub.parse_element("1")  # in Z/4, outside the image
    with pytest.raises(ParseError, match="out of range"):
        sub.parse_element("4")
    # a family read through it can no longer sum to 3, outside the image
    with pytest.raises(ParseError):
        parse_pwc("[0,3)->1", sub.parse_element)


def test_module_errors_are_translim_errors():
    for build in (lambda: FiniteMod(0, ()), lambda: FiniteMod(4, (3,)),
                  lambda: AdditiveTheory(0)):
        with pytest.raises(TranslimError):
            build()
    with pytest.raises(ParseError):
        parse_theory("add-inf mod 0")


@settings(max_examples=150, deadline=None)
@given(finite_mods(min_size=2), st.integers(0, 2 ** 32))
def test_images_are_spans_closed_under_the_three_laws(m, seed):
    # nothing checks a Submodule as it is built, so image must pass a set
    # closed under the three laws, and generators that span it
    sub, _ = image(random_hom(random.Random(seed), m, m))
    assert three_law_closure(m, sub.carrier)
    assert span(m, sub.generators()) == sub.carrier


@settings(max_examples=100, deadline=None)
@given(finite_mods(min_size=2), st.data())
def test_submodule_membership_matches_the_carrier(m, data):
    elems = st.sampled_from(m.elements())
    picked = data.draw(st.lists(elems, min_size=1, max_size=4))
    r = data.draw(st.integers(0, m.modulus - 1))
    times_r = Homomorphism.from_generator_images(
        m, m, [m.scal(r, g) for g in m.generators()])
    for sub in (spanned(m, picked), image(times_r)[0]):
        for x in m.elements():
            assert sub.contains(x) == (x in sub.carrier)


# -- FreeSymbolic -------------------------------------------------------------------

def test_free_symbolic_formal_operations():
    free = FreeSymbolic(AdditiveTheory(4), OMEGA)
    assert free.literal == "free(add-inf mod 4, w)"
    assert free.zero() == ZERO_TERM
    assert free.add(var(0), var(1)) == App("+", (var(0), var(1)))
    assert free.scal(7, var(0)) == scal(3, var(0))
    assert free.apply("+", [var(0), var(1)]) == App("+", (var(0), var(1)))
    assert free.apply(("scal", 6), [var(2)]) == scal(2, var(2))
    with pytest.raises(TheoryMismatchError):
        free.apply("+", [var(0)])
    s = free.infinitary_sum(PwcSeq.constant(var(1), OMEGA))
    assert s == Sum(OMEGA, PwcSeq.constant(var(1), OMEGA))
    with pytest.raises(InfiniteCarrierError):
        free.elements()


def test_free_symbolic_finitary_has_no_sum():
    free = FreeSymbolic(AdditiveTheory(2, infinitary=False), OMEGA)
    with pytest.raises(TheoryMismatchError):
        free.infinitary_sum(PwcSeq.constant(var(0), OMEGA))


def test_free_symbolic_contains_is_term_checking():
    free = FreeSymbolic(AdditiveTheory(2), from_int(3))
    assert free.contains(var(2))
    assert not free.contains(var(3))
    assert not free.contains(sum_term(OMEGA))  # positions exceed generators
    assert free.contains(sum_term(from_int(3)))
    fin = FreeSymbolic(AdditiveTheory(2, infinitary=False), from_int(3))
    assert not fin.contains(sum_term(from_int(3)))
    assert fin.contains(App("+", (var(0), var(1))))


def test_free_symbolic_element_text():
    free = FreeSymbolic(AdditiveTheory(2), OMEGA)
    t = free.parse_element("(+ x0 (scal 1 x3))")
    assert t == App("+", (var(0), scal(1, var(3))))
    assert free.format_element(t) == "(+ x0 (scal 1 x3))"
    with pytest.raises(UnboundVariableError):
        FreeSymbolic(AdditiveTheory(2), from_int(2)).parse_element("x5")


# -- the enumeration limit ----------------------------------------------------------

def test_carriers_and_tables_past_the_enumeration_limit_are_refused():
    big = FiniteMod(2**21, (2**21,))
    assert big.size == 2**21 and big.contains((2**21 - 1,))
    with pytest.raises(ResourceLimitError, match="carrier of Z/2097152 "):
        big.elements()
    with pytest.raises(ResourceLimitError, match="map out of Z/2097152 "):
        Homomorphism.from_generator_images(big, big, [(1,)])


# -- homomorphisms ------------------------------------------------------------------

def test_homomorphism_theories_must_match():
    with pytest.raises(TheoryMismatchError):
        Homomorphism.from_function(Z2, Z4, lambda x: x)


def test_homomorphism_table_verification():
    dom = FiniteMod(4, (2,))  # Z/2 as a module over Z/4
    f = Homomorphism(dom, Z4, {(0,): (0,), (1,): (2,)})
    assert f((1,)) == (2,)
    with pytest.raises(HomomorphismValidationError):
        Homomorphism(dom, Z4, {(0,): (0,), (1,): (1,)})
    with pytest.raises(HomomorphismValidationError):
        Homomorphism(dom, Z4, {(0,): (1,), (1,): (3,)})
    with pytest.raises(HomomorphismValidationError):
        Homomorphism(dom, Z4, {(0,): (0,)})  # missing key
    with pytest.raises(HomomorphismValidationError):
        Homomorphism(dom, Z4, {(0,): (0,), (1,): (4,)})  # not in Z/4


def test_homomorphism_validation_reports_witness():
    dom = FiniteMod(4, (2,))
    try:
        Homomorphism(dom, Z4, {(0,): (0,), (1,): (1,)})
    except HomomorphismValidationError as exc:
        assert exc.witness is not None
    else:
        pytest.fail("broken table accepted")


def linear_table(dom, cod, images, elems):
    """x -> sum of x_i * images[i]; ill-defined images give a broken table."""
    table = {}
    for x in elems:
        acc = cod.zero()
        for c, g in zip(x, images):
            acc = cod.add(acc, cod.scal(c, g))
        table[x] = acc
    return table


@st.composite
def tables(draw, dom, cod, elems):
    """Tables on elems into cod: linear extensions of random generator images
    of dom (some ill-defined) or random values, then maybe one entry broken:
    a new value, a missing key or a value outside the codomain."""
    values = st.sampled_from(cod.elements())
    if draw(st.booleans()):
        images = [draw(values) for _ in dom.shape]
        table = linear_table(dom, cod, images, elems)
    else:
        table = {x: draw(values) for x in elems}
    x = draw(st.sampled_from(elems))
    breakage = draw(st.sampled_from(("none", "value", "missing", "outside")))
    if breakage == "value":
        table[x] = draw(values)
    elif breakage == "missing":
        del table[x]
    elif breakage == "outside":
        table[x] = tuple(c + m for c, m in zip(draw(values), cod.shape))
    return table


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_hom_check_matches_the_exhaustive_laws(data):
    dom = data.draw(st.one_of(finite_mods(), finite_mods(min_size=2)))
    cod = data.draw(finite_mods(modulus=dom.modulus))
    table = data.draw(tables(dom, cod, dom.elements()))
    assert _accepts(lambda: Homomorphism(dom, cod, table=table)) == \
        exhaustive_hom_laws(dom, cod, table)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_hom_check_on_image_domains_matches_the_exhaustive_laws(data):
    m = data.draw(finite_mods(min_size=2))
    r = data.draw(st.integers(1, m.modulus))
    sub, _ = image(Homomorphism.from_function(m, m, lambda x: m.scal(r, x)))
    cod = data.draw(finite_mods(modulus=m.modulus))
    # linear tables of m restricted to the image are homomorphisms whenever
    # they are well defined on it
    table = data.draw(tables(m, cod, sub.elements()))
    assert _accepts(lambda: Homomorphism(sub, cod, table=table)) == \
        exhaustive_hom_laws(sub, cod, table)


def verified_linear_extension(dom, cod, images):
    """The old from_generator_images: build every entry from the raw
    images, then verify the table like any other."""
    if len(images) != len(dom.shape):
        raise HomomorphismValidationError(
            f"need {len(dom.shape)} generator images")
    return Homomorphism(dom, cod,
                        table=linear_table(dom, cod, images, dom.elements()))


@st.composite
def codomains(draw, modulus):
    """A FiniteMod over Z/modulus, or a submodule of one: the span of a
    few elements or the image of a map."""
    cod = draw(finite_mods(modulus=modulus))
    kind = draw(st.sampled_from(("module", "span", "image")))
    if kind == "span":
        picked = draw(st.lists(st.sampled_from(cod.elements()), max_size=3))
        return spanned(cod, picked)
    if kind == "image":
        r = draw(st.integers(0, modulus))
        return image(Homomorphism.from_function(
            cod, cod, lambda x: cod.scal(r, x)))[0]
    return cod


@st.composite
def generator_images(draw, dom, cod):
    """Images for the generators of dom: elements of the codomain's parent
    module, so they may miss a submodule or break the order condition,
    some written with out-of-range or too few coordinates, and sometimes
    one image too many or too few."""
    parent = cod.parent if isinstance(cod, Submodule) else cod
    images = []
    for _ in dom.shape:
        g = draw(st.sampled_from(parent.elements()))
        shifts = draw(st.lists(st.integers(-2, 2), min_size=len(g),
                               max_size=len(g)))
        g = tuple(c + k * m for c, k, m in zip(g, shifts, parent.shape))
        if g and draw(st.integers(0, 9)) == 0:
            g = g[:-1]
        images.append(g)
    miscount = draw(st.sampled_from((0, 0, 0, 0, 1, -1)))
    if miscount == 1:
        images.append(parent.zero())
    elif miscount == -1 and images:
        images.pop()
    return images


def _table_or_rejected(build):
    try:
        return build().table
    except HomomorphismValidationError:
        return None


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_from_generator_images_matches_the_verified_table(data):
    dom = data.draw(finite_mods())
    cod = data.draw(codomains(dom.modulus))
    images = data.draw(generator_images(dom, cod))
    got = _table_or_rejected(
        lambda: Homomorphism.from_generator_images(dom, cod, images))
    assert got == _table_or_rejected(
        lambda: verified_linear_extension(dom, cod, images))
    if got is not None:
        assert list(got) == dom.elements()


def test_from_generator_images_reads_a_z1_image_as_zero():
    dom = FiniteMod(4, (1, 4))
    f = Homomorphism.from_generator_images(dom, Z4, [(1,), (2,)])
    assert f == verified_linear_extension(dom, Z4, [(1,), (2,)])
    assert f((0, 1)) == (2,)


@pytest.mark.parametrize("shape", [(256,), (16, 16), (2,) * 8])
def test_from_generator_images_is_linear_in_the_carrier(monkeypatch, shape):
    level = FiniteMod(math.lcm(*shape), shape)
    ops = [0]
    for name in ("zero", "add", "neg", "scal", "contains"):
        method = getattr(FiniteMod, name)

        def counted(*args, method=method):
            ops[0] += 1
            return method(*args)

        monkeypatch.setattr(FiniteMod, name, counted)
    f = Homomorphism.from_generator_images(level, level, level.generators())
    monkeypatch.undo()
    assert f == Homomorphism.identity(level)
    assert level.size == 256
    # the checks make a few operations per generator; the build makes none
    assert ops[0] <= 4 * len(shape)


def eager_linear_table(domain, codomain, images):
    """The table from_generator_images built at construction before maps
    kept their generator images: one list per codomain coordinate."""
    images = [codomain.scal(1 % m, g) for m, g in zip(domain.shape, images)]
    orders = _parent(codomain).shape if codomain.is_finite else ()
    columns = []
    for j, n in enumerate(orders):
        col = [0]
        for m, g in zip(domain.shape, images):
            col = [(v + c * g[j]) % n for v in col for c in range(m)]
        columns.append(col)
    values = (zip(*columns) if columns
              else itertools.repeat(codomain.zero()))
    return dict(zip(itertools.product(*map(range, domain.shape)), values))


@pytest.fixture
def tables_built(monkeypatch):
    """A one-item list counting the tables folded from generator images."""
    count = [0]
    fold = instances._linear_table

    def counted(*args):
        count[0] += 1
        return fold(*args)

    monkeypatch.setattr(instances, "_linear_table", counted)
    return count


def test_a_linear_extension_builds_its_table_on_first_read(tables_built):
    built = 0
    for read in (lambda f: f((1, 3)), lambda f: f.table, lambda f: f == f,
                 lambda f: f.after(f)):
        maps = (Homomorphism.from_generator_images(Z2xZ4, Z2xZ4,
                                                   [(1, 0), (0, 2)]),
                Homomorphism.identity(Z2xZ4),
                Homomorphism.zero_map(Z2xZ4, Z2xZ4))
        assert tables_built == [built]
        for f in maps:
            read(f)
            read(f)
        built += len(maps)
        assert tables_built == [built]  # once per map, on its first read


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.integers(0, 2 ** 32))
def test_lazy_tables_equal_the_eager_build_on_random_homs(modulus, seed):
    drawn = []
    build = Homomorphism.from_generator_images

    def recorded(domain, codomain, images):
        drawn.append((build(domain, codomain, images), images))
        return drawn[-1][0]

    rng = random.Random(seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Homomorphism, "from_generator_images",
                      staticmethod(recorded))
        _sampled_maps(rng, modulus)
    for f, images in drawn:
        assert list(f.table.items()) == list(
            eager_linear_table(f.domain, f.codomain, images).items())


def test_maps_out_of_a_carrier_past_the_limit_are_refused_at_once(
        tables_built):
    big = FiniteMod(ENUMERATION_LIMIT * 2, (ENUMERATION_LIMIT * 2,))
    two = FiniteMod(big.modulus, (2,))
    with pytest.raises(ResourceLimitError, match="a map out of Z/2097152"):
        Homomorphism.from_generator_images(big, two, [(1,)])
    for build in (lambda: Homomorphism.identity(big),
                  lambda: Homomorphism.zero_map(big, two)):
        with pytest.raises(ResourceLimitError,
                           match="the carrier of Z/2097152"):
            build()
    assert tables_built == [0]


def test_a_constant_tail_system_builds_no_identity_table(tables_built):
    system = InverseSystem(OMEGA, (Z2xZ4, Z2xZ4), (
        Homomorphism.from_function(Z2xZ4, Z2xZ4, lambda x: x),), "constant")
    assert tables_built == [0]
    assert system.push_down((1, 3), 5, 0) == (1, 3)
    assert limit_object(system).depth == 0
    assert tables_built == [0]  # the identity steps past the prefix skipped


def test_from_generator_images_into_a_free_module():
    free = FreeSymbolic(AdditiveTheory(4), from_int(1))
    assert Homomorphism.from_generator_images(
        zero_module(4), free, []).table == {(): ZERO_TERM}
    # formal terms are never reduced, so 4 * x0 is not zero
    with pytest.raises(HomomorphismValidationError):
        Homomorphism.from_generator_images(Z4, free, [var(0)])


def test_from_generator_images():
    double = Homomorphism.from_generator_images(Z4, Z4, [(2,)])
    assert double((1,)) == (2,)
    assert double((3,)) == (2,)
    with pytest.raises(HomomorphismValidationError):
        Homomorphism.from_generator_images(Z4, Z4, [(2,), (0,)])
    dom = FiniteMod(4, (2,))
    with pytest.raises(HomomorphismValidationError):
        # e -> 1 does not extend: 2*e = 0 but 2*1 = 2
        Homomorphism.from_generator_images(dom, Z4, [(1,)])


def test_identity_zero_and_composition():
    ident = Homomorphism.identity(Z4)
    zmap = Homomorphism.zero_map(Z4, Z4)
    double = Homomorphism.from_generator_images(Z4, Z4, [(2,)])
    assert ident((3,)) == (3,)
    assert zmap((3,)) == (0,)
    assert double.after(ident) == double
    assert ident.after(double) == double
    assert double.after(double) == zmap
    with pytest.raises(TheoryMismatchError):
        double.after(Homomorphism.identity(FiniteMod(4, (2,))))


def test_homomorphism_equality():
    a = Homomorphism.from_generator_images(Z4, Z4, [(2,)])
    b = Homomorphism(Z4, Z4, {x: Z4.scal(2, x) for x in Z4.elements()})
    assert a == b
    assert a != Homomorphism.identity(Z4)
    assert a != Homomorphism.from_generator_images(
        FiniteMod(4, (2,)), Z4, [(2,)])


def test_image_and_regular_epi():
    double = Homomorphism.from_generator_images(Z4, Z4, [(2,)])
    sub, incl = image(double)
    assert sub.elements() == [(0,), (2,)]
    assert incl((2,)) == (2,)
    assert not is_regular_epi(double)
    assert is_regular_epi(Homomorphism.identity(Z4))
    assert is_regular_epi(Homomorphism.zero_map(Z4, zero_module(4)))
    # a table out of a free module cannot be verified: it has no carrier
    free = FreeSymbolic(AdditiveTheory(4), from_int(1))
    with pytest.raises(InfiniteCarrierError):
        Homomorphism(free, Z4, {var(0): (1,), ZERO_TERM: (0,)})


def test_spanned_submodules_keep_their_generators():
    double = Homomorphism.from_generator_images(Z4, Z4, [(2,)])
    sub, _ = image(double)
    assert sub.generators() == ((2,),)
    even = spanned(Z4, [(0,), (2,)])
    assert even.generators() == ((0,), (2,))
    # the generating set is not part of the value
    assert sub == even and hash(sub) == hash(even) and repr(sub) == repr(even)
    assert repr(sub) == ("Submodule(parent=FiniteMod(modulus=4, shape=(4,), "
                         "infinitary=True), carrier=((0,), (2,)))")
    # a map out of the image is verified on its generator
    assert Homomorphism(sub, Z2m4, {(0,): (0,), (2,): (1,)})((2,)) == (1,)


# -- table-speed maps against the bodies they replaced --------------------------

def verify_by_module_calls(dom, cod, f):
    """Homomorphism._verify as it was, every read and add made through the
    instances' own methods: the reference for messages and witnesses."""
    elems = dom.elements()
    for x in elems:
        if x not in f:
            raise HomomorphismValidationError(f"table missing {x!r}", x)
        if not cod.contains(f[x]):
            raise HomomorphismValidationError(
                f"value {f[x]!r} outside the codomain", x)
    if f[dom.zero()] != cod.zero():
        raise HomomorphismValidationError(
            "zero is not preserved", dom.zero())
    gens = dom.generators()
    for x in elems:
        for g in gens:
            if f[dom.add(x, g)] != cod.add(f[x], f[g]):
                raise HomomorphismValidationError(
                    f"addition broken at {x!r} + {g!r}", (x, g))


def identity_by_comprehension(module):
    return Homomorphism(module, module,
                        table={x: x for x in module.elements()},
                        _checked=True)


def zero_map_by_verification(domain, codomain):
    z = codomain.zero()
    return Homomorphism(domain, codomain,
                        table={x: z for x in domain.elements()})


def regular_epi_by_sets(f):
    return set(f.table.values()) == set(f.codomain.elements())


def _verdict(check):
    """None if check passes, else the rejection's message and witness."""
    try:
        check()
    except HomomorphismValidationError as exc:
        return str(exc), exc.witness
    return None


def _same_verdicts(dom, cod, table):
    got = _verdict(lambda: Homomorphism(dom, cod, table))
    assert got == _verdict(lambda: verify_by_module_calls(dom, cod, table))
    return got


def _parent(module):
    return module.parent if isinstance(module, Submodule) else module


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_verify_matches_the_module_call_body(data):
    modulus = data.draw(st.integers(1, 8))
    dom, cod = data.draw(codomains(modulus)), data.draw(codomains(modulus))
    table = data.draw(tables(_parent(dom), _parent(cod), dom.elements()))
    _same_verdicts(dom, cod, table)


def _sampled_maps(rng, modulus):
    """Maps of a random system and of a random levelwise-surjective
    morphism: its level maps and both systems' maps."""
    system = random_system(rng, modulus)
    phi = random_surjective_system_morphism(rng, modulus)
    return (*system.maps, *phi.homs, *phi.source.maps, *phi.target.maps)


def _tampered_tables(rng, f):
    """f's table with one value moved, one key dropped, one value outside."""
    x = rng.choice(list(f.table))
    cod = _parent(f.codomain)
    moved = dict(f.table)
    moved[x] = rng.choice(cod.elements())
    dropped = dict(f.table)
    del dropped[x]
    outside = dict(f.table)
    outside[x] = tuple(c + m for c, m in zip(f.table[x], cod.shape))
    return moved, dropped, outside


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.integers(0, 2**32))
def test_verify_matches_on_sampled_and_tampered_maps(modulus, seed):
    rng = random.Random(seed)
    for f in _sampled_maps(rng, modulus):
        assert _same_verdicts(f.domain, f.codomain, dict(f.table)) is None
        for table in _tampered_tables(rng, f):
            _same_verdicts(f.domain, f.codomain, table)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_identity_and_zero_map_match_the_old_tables(data):
    modulus = data.draw(st.integers(1, 8))
    dom, cod = data.draw(codomains(modulus)), data.draw(codomains(modulus))
    ident, old = Homomorphism.identity(dom), identity_by_comprehension(dom)
    assert list(ident.table.items()) == list(old.table.items())
    # the zero table passes the check it now skips
    zmap, old = Homomorphism.zero_map(dom, cod), zero_map_by_verification(dom, cod)
    assert list(zmap.table.items()) == list(old.table.items())


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.integers(0, 2**32), st.data())
def test_regular_epi_matches_the_set_comparison(modulus, seed, data):
    rng = random.Random(seed)
    dom = data.draw(finite_mods(modulus=modulus))
    cod = data.draw(codomains(modulus))
    maps = [random_hom(rng, dom, cod), *_sampled_maps(rng, modulus)]
    maps += [image(f)[1] for f in maps]
    for f in maps:
        assert is_regular_epi(f) == regular_epi_by_sets(f)


# -- literals -----------------------------------------------------------------------

def test_parse_instance_examples():
    assert parse_instance("Z/4") == FiniteMod(4, (4,))
    assert parse_instance("Z/2 x Z/4") == FiniteMod(4, (2, 4))
    assert parse_instance("Z/2 x Z/3") == FiniteMod(6, (2, 3))
    free = parse_instance("free(add-inf mod 2, w)")
    assert free == FreeSymbolic(AdditiveTheory(2, True), OMEGA)
    fin = parse_instance("free(add-fin mod 3, 5)")
    assert fin == FreeSymbolic(AdditiveTheory(3, False), from_int(5))


def test_instance_literal_round_trip():
    for m in standard_battery():
        assert parse_instance(m.literal) == m


@given(st.lists(st.integers(1, 12), max_size=3))
@example([])
def test_finite_literal_round_trip(shape):
    m = FiniteMod(math.lcm(*shape), tuple(shape))
    assert parse_instance(m.literal) == m


@pytest.mark.parametrize("text", [
    "", "Q", "Z/x", "Z/0", "Z/4 x Q", "free(add-inf mod 2)",
    "free(mystery, w)",
])
def test_parse_instance_rejects(text):
    with pytest.raises(ParseError):
        parse_instance(text)


def test_parse_theory():
    assert parse_theory("add-inf mod 6") == AdditiveTheory(6, True)
    assert parse_theory("add-fin mod 2") == AdditiveTheory(2, False)
    for bad in ("", "add mod 2", "add-inf mod x"):
        with pytest.raises(ParseError):
            parse_theory(bad)
    assert parse_theory("add-inf mod 6").literal == "add-inf mod 6"
    assert parse_theory("add-fin mod 2").literal == "add-fin mod 2"


def test_zero_module_and_battery():
    z = zero_module(4)
    assert z.size == 1 and z.zero() == ()
    assert z.literal == "0"
    battery = standard_battery()
    assert [m.literal for m in battery] == [
        "Z/2", "Z/3", "Z/4", "Z/2 x Z/2", "Z/6"]
    assert all(m.theory.infinitary for m in battery)
