"""Inverse systems: limits, morphisms, extension by zero, JSON form."""

import json
import random

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from translim import (
    OMEGA,
    FiniteMod,
    Homomorphism,
    IndexOutOfRangeError,
    InfiniteCarrierError,
    InvalidAlphaError,
    LevelwiseNotEpiError,
    ParseError,
    PwcSeq,
    TheoryMismatchError,
    ZERO,
    from_int,
    lim_eval,
    parse_instance,
)
from translim import diagrams
from translim.diagrams import (
    InverseSystem,
    SystemMorphism,
    check_inverse_limit_surjectivity,
    colimit_object,
    compose_system_morphisms,
    extend_by_zero_comparison,
    extend_by_zero_system,
    induced_limit_map,
    lim_to_prod_section_check,
    limit_object,
    retract_product_element,
    system_from_json,
    system_to_json,
)
from translim.errors import HomomorphismValidationError
from translim.sampling import (random_hom, random_surjective_system_morphism,
                               random_system)

Z4 = parse_instance("Z/4")
Z2m4 = FiniteMod(4, (2,))  # Z/2 carried as a module over Z/4

IDENT = Homomorphism.identity(Z4)
MULT2 = Homomorphism.from_generator_images(Z4, Z4, [(2,)])
MOD2 = Homomorphism.from_function(Z4, Z2m4, lambda x: (x[0] % 2,))
ZERO4 = Homomorphism.zero_map(Z4, Z4)


def constant_system(module, levels=1):
    prefix = (module,) * levels
    maps = tuple(Homomorphism.identity(module) for _ in range(levels - 1))
    return InverseSystem(OMEGA, prefix, maps, "constant")


# -- construction -----------------------------------------------------------------

def test_system_validation():
    with pytest.raises(InvalidAlphaError):
        InverseSystem(OMEGA, (), (), "constant")
    with pytest.raises(ParseError):
        InverseSystem(OMEGA, (Z4, Z4), (), "constant")  # missing map
    with pytest.raises(ParseError):
        InverseSystem(OMEGA, (Z4, Z4), (MOD2,), "constant")  # endpoints
    with pytest.raises(TheoryMismatchError):
        InverseSystem(OMEGA, (Z4, parse_instance("Z/2")), (IDENT,), "constant")
    with pytest.raises(ParseError):
        InverseSystem(OMEGA, (Z4,), (), None)  # omega needs a tail rule
    with pytest.raises(ParseError):
        InverseSystem(OMEGA, (Z2m4, Z4), (MOD2,), "repeat-last-block")
    with pytest.raises(ParseError):
        InverseSystem(from_int(3), (Z4, Z4), (IDENT,), None)  # wrong height
    with pytest.raises(ParseError):
        InverseSystem(from_int(2), (Z4, Z4), (IDENT,), "constant")
    with pytest.raises(InvalidAlphaError):
        InverseSystem(OMEGA + OMEGA, (Z4,), (), "constant")
    with pytest.raises(InfiniteCarrierError):
        InverseSystem(OMEGA, (parse_instance("free(add-inf mod 4, w)"),),
                      (), "constant")


def test_levels_and_maps_continue_periodically():
    sys_c = constant_system(Z4)
    assert sys_c.level(7) == Z4
    assert sys_c.map_at(5) == IDENT
    tower = InverseSystem(OMEGA, (Z4, Z4), (MULT2,), "repeat-last-block")
    assert tower.map_at(0) == MULT2
    assert tower.map_at(9) == MULT2
    fin = InverseSystem(from_int(2), (Z4, Z4), (MULT2,), None)
    assert fin.level(1) == Z4
    with pytest.raises(IndexOutOfRangeError):
        fin.level(2)
    with pytest.raises(IndexOutOfRangeError):
        fin.map_at(1)


def test_push_down():
    tower = InverseSystem(OMEGA, (Z4, Z4), (MULT2,), "repeat-last-block")
    assert [tower.push_down(x, 0, 0) for x in Z4.elements()] == Z4.elements()
    assert tower.push_down((1,), 1, 0) == MULT2((1,))
    assert tower.push_down((1,), 2, 0) == MULT2.after(MULT2)((1,))
    assert constant_system(Z4, levels=2).push_down((3,), 9, 4) == (3,)
    with pytest.raises(IndexOutOfRangeError):
        tower.push_down((1,), 0, 2)
    fin = InverseSystem(from_int(2), (Z4, Z4), (MULT2,), None)
    assert fin.push_down((1,), 1, 0) == (2,)
    with pytest.raises(IndexOutOfRangeError):
        fin.push_down((1,), 2, 2)


def composite_by_tables(system, i, j):
    """The level-j to level-i map as one table: the identity of level j
    composed with map_at(k) for k = j-1 down to i (the old composite)."""
    if i > j:
        raise IndexOutOfRangeError(f"no map from level {j} up to {i}")
    f = Homomorphism.identity(system.level(j))
    for k in range(j - 1, i - 1, -1):
        f = system.map_at(k).after(f)
    return f


def _pushes_match_tables(system):
    for j in range(system.height + 3):
        for i in range(j + 1):
            try:
                table = composite_by_tables(system, i, j)
            except IndexOutOfRangeError:
                with pytest.raises(IndexOutOfRangeError):
                    system.push_down(system.level(0).zero(), j, i)
                continue
            for x in system.level(j).elements():
                assert system.push_down(x, j, i) == table(x)


def _as_finite(system):
    return InverseSystem(from_int(system.height), system.prefix,
                         system.maps, None)


@given(st.integers(1, 8), st.booleans(), st.integers(0, 2**32))
@settings(max_examples=100, deadline=None)
def test_push_down_matches_composite_tables(modulus, finite, seed):
    system = random_system(random.Random(seed), modulus)
    _pushes_match_tables(_as_finite(system) if finite else system)


@pytest.mark.parametrize("a", range(1, 6))
def test_push_down_matches_composite_tables_on_doubling_tower(a):
    n = 2 ** a
    level = FiniteMod(n, (n,))
    double = Homomorphism.from_generator_images(level, level, [(2 % n,)])
    _pushes_match_tables(InverseSystem(OMEGA, (level, level), (double,),
                                       "repeat-last-block"))


def push_down_by_map_calls(system, x, j, i):
    """InverseSystem.push_down as it was, one map_at call per step."""
    if i > j:
        raise IndexOutOfRangeError(f"no map from level {j} up to {i}")
    if j >= system.height and system.index != OMEGA:
        raise IndexOutOfRangeError(
            f"level {j} of a height-{system.height} finite system")
    for k in range(j - 1, i - 1, -1):
        x = system.map_at(k)(x)
    return x


def _outcome(fn):
    try:
        return fn()
    except (IndexOutOfRangeError, KeyError) as exc:
        return type(exc), str(exc)


def _sampled_systems(rng, modulus):
    """A random system and both ends of a random levelwise-surjective
    morphism, each over omega and cut to its prefix."""
    phi = random_surjective_system_morphism(rng, modulus)
    systems = (random_system(rng, modulus), phi.source, phi.target)
    return [s for system in systems for s in (system, _as_finite(system))]


@given(st.integers(1, 8), st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_push_down_matches_the_map_call_body(modulus, seed):
    for system in _sampled_systems(random.Random(seed), modulus):
        for j in range(system.height + 3):
            # a non-element is a KeyError wherever a map is applied
            xs = [*system.level(0).elements(), ("junk",)]
            if j < system.height or system.index == OMEGA:
                xs[:-1] = system.level(j).elements()
            for i in range(j + 2):
                for x in xs:
                    assert _outcome(lambda: system.push_down(x, j, i)) == \
                        _outcome(lambda: push_down_by_map_calls(system, x, j, i))


# -- limits ------------------------------------------------------------------------

def test_limit_of_constant_system():
    lobj = limit_object(constant_system(Z4))
    assert sorted(lobj.elements()) == sorted(Z4.elements())
    assert lobj.depth == 0
    for x in lobj.elements():
        for j in (0, 1, 5):
            assert lobj.coordinate(x, j) == x


def test_limit_of_multiplication_tower():
    tower = InverseSystem(OMEGA, (Z4, Z4), (MULT2,), "repeat-last-block")
    lobj = limit_object(tower)
    assert lobj.elements() == [(0,)]
    assert lobj.depth == 2  # Z/4 -> {0,2} -> {0}
    assert lobj.coordinate((0,), 6) == (0,)
    with pytest.raises(IndexOutOfRangeError):
        lobj.coordinate((1,), 0)


def _depth_within_log2_of_top(system):
    # the image chain is a chain of subgroups of the top level and each
    # strict step at least halves it, so 2^depth <= |top|
    depth = limit_object(system).depth
    assert 2 ** depth <= system.prefix[-1].size
    return depth


@given(st.integers(1, 8), st.booleans(), st.integers(0, 2**32))
@settings(max_examples=150, deadline=None)
def test_depth_of_sampled_systems_is_at_most_log2_of_the_top(
        modulus, infinitary, seed):
    _depth_within_log2_of_top(
        random_system(random.Random(seed), modulus, infinitary=infinitary))


@given(st.integers(0, 7), st.integers(0, 127))
@example(7, 2)
@settings(max_examples=100, deadline=None)
def test_depth_of_multiplication_towers_is_at_most_log2_of_the_top(a, m):
    n = 2 ** a
    level = FiniteMod(n, (n,))
    mult = Homomorphism.from_generator_images(level, level, [(m % n,)])
    tower = InverseSystem(OMEGA, (level, level), (mult,), "repeat-last-block")
    depth = _depth_within_log2_of_top(tower)
    if m % n == 2 % n:
        assert depth == a  # doubling meets the bound: Z/2^a, 2Z/2^a, ...


def closure(module, gens):
    """Breadth-first closure of zero and gens under +, within the module."""
    seen, frontier = {module.zero()}, [module.zero()]
    while frontier:
        frontier = [y for y in {module.add(x, g) for x in frontier
                                for g in gens} if y not in seen]
        seen.update(frontier)
    return seen


@given(st.integers(1, 8), st.booleans(), st.integers(0, 2**32))
@settings(max_examples=150, deadline=None)
def test_limit_carriers_are_spanned_by_their_generators(
        modulus, infinitary, seed):
    system = random_system(random.Random(seed), modulus,
                           infinitary=infinitary)
    carrier = limit_object(system).carrier
    top = system.prefix[-1]
    assert closure(top, carrier.generators()) == set(carrier.carrier)
    # a subset holding zero and closed under + is a submodule
    assert top.zero() in carrier.members
    assert all(top.add(x, y) in carrier.members
               for x in carrier.carrier for y in carrier.carrier)


def test_constant_limit_needs_no_pair_check(monkeypatch):
    level = FiniteMod(4096, (4096,))
    system = constant_system(level)
    ops = [0]
    for name in ("zero", "add", "neg", "scal", "contains"):
        method = getattr(FiniteMod, name)

        def counted(*args, method=method):
            ops[0] += 1
            return method(*args)

        monkeypatch.setattr(FiniteMod, name, counted)
    lobj = limit_object(system)
    assert len(lobj.elements()) == 4096 and lobj.depth == 0
    assert lobj.carrier.generators() == ((1,),)
    assert ops[0] <= level.size


def image_chain_by_calls(system):
    """limit_object's image chain as it was, one map call per element: the
    carrier, its generators, the depth and the lift."""
    top = system.prefix[-1]
    current = set(top.elements())
    gens = top.generators()
    depth = 0
    if system.tail != "repeat-last-block":
        lift = {x: x for x in current}
    else:
        endo = system.maps[-1]
        while (nxt := {endo(x) for x in current}) != current:
            depth += 1
            current = nxt
            gens = [endo(g) for g in gens]
        lift = {endo(x): x for x in current}
    return current, tuple(gens), depth, lift


@given(st.integers(1, 8), st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_limit_chain_matches_the_call_body(modulus, seed):
    for system in _sampled_systems(random.Random(seed), modulus):
        lobj = limit_object(system)
        assert (lobj.carrier.members, lobj.carrier.generators(), lobj.depth,
                lobj._lift) == image_chain_by_calls(system)


def test_limit_of_capped_tower():
    capped = InverseSystem(OMEGA, (Z2m4, Z4, Z4), (MOD2, IDENT), "constant")
    lobj = limit_object(capped)
    assert len(lobj.elements()) == 4
    assert lobj.depth == 0
    for x in lobj.elements():
        assert lobj.coordinate(x, 0) == (x[0] % 2,)
        assert lobj.coordinate(x, 3) == x
    assert colimit_object(capped) == Z2m4


def test_limit_of_finite_system():
    fin = InverseSystem(from_int(3), (Z2m4, Z4, Z4), (MOD2, MULT2), None)
    lobj = limit_object(fin)
    assert sorted(lobj.elements()) == sorted(Z4.elements())
    assert lobj.coordinate((3,), 1) == (2,)
    assert lobj.coordinate((3,), 0) == (0,)
    with pytest.raises(IndexOutOfRangeError):
        lobj.coordinate((3,), 3)


# -- extension by zero ----------------------------------------------------------------

def test_extend_by_zero_system_omega():
    sys_z = extend_by_zero_system(Z4, from_int(2), OMEGA)
    assert sys_z.height == 4
    assert sys_z.level(2) == Z4
    assert sys_z.level(3).size == 1
    lobj = limit_object(sys_z)
    assert len(lobj.elements()) == 1
    assert lobj.coordinate(lobj.elements()[0], 0) == (0,)
    assert colimit_object(sys_z) == Z4


def test_extend_by_zero_system_finite():
    sys_z = extend_by_zero_system(Z4, ZERO, from_int(3))
    assert [l.size for l in sys_z.prefix] == [4, 1, 1]
    assert sys_z.tail is None
    assert limit_object(sys_z).elements() == [()]


def test_extend_by_zero_guards():
    with pytest.raises(IndexOutOfRangeError):
        extend_by_zero_system(Z4, OMEGA, OMEGA + from_int(1))
    with pytest.raises(IndexOutOfRangeError):
        extend_by_zero_system(Z4, from_int(3), from_int(3))
    with pytest.raises(InvalidAlphaError):
        extend_by_zero_system(Z4, from_int(1), OMEGA + OMEGA)


def test_extend_by_zero_morphism_and_comparison():
    sys_z = extend_by_zero_system(Z4, from_int(1), OMEGA)
    zero = sys_z.level(2)
    phi = SystemMorphism(sys_z, sys_z,
                         (MULT2, MULT2, Homomorphism.zero_map(zero, zero)))
    assert phi.hom_at(0) == MULT2
    assert phi.hom_at(2)(()) == ()
    f = induced_limit_map(phi)
    assert len(f.table) == 1

    cmp13 = extend_by_zero_comparison(Z4, from_int(1), from_int(3), OMEGA)
    cmp34 = extend_by_zero_comparison(Z4, from_int(3), from_int(4), OMEGA)
    cmp14 = extend_by_zero_comparison(Z4, from_int(1), from_int(4), OMEGA)
    composed = compose_system_morphisms(cmp34, cmp13)
    for j in range(7):
        assert composed.hom_at(j) == cmp14.hom_at(j)
    with pytest.raises(IndexOutOfRangeError):
        extend_by_zero_comparison(Z4, from_int(3), from_int(1), OMEGA)


# -- morphisms of systems ---------------------------------------------------------------

def test_morphism_validation():
    src = constant_system(Z4, levels=2)
    with pytest.raises(ParseError):
        SystemMorphism(src, constant_system(Z4), (IDENT,))  # wrong count
    with pytest.raises(ParseError):
        SystemMorphism(src, constant_system(Z2m4, 2), (IDENT, IDENT))
    fin = InverseSystem(from_int(2), (Z4, Z4), (IDENT,), None)
    with pytest.raises(ParseError):
        SystemMorphism(src, fin, (IDENT, IDENT))  # index shapes differ


def test_morphism_square_rejection_carries_witness():
    blocky = InverseSystem(OMEGA, (Z4, Z4), (MULT2,), "repeat-last-block")
    flat = constant_system(Z4, levels=2)
    try:
        SystemMorphism(blocky, flat, (IDENT, IDENT))
    except HomomorphismValidationError as exc:
        assert exc.witness is not None
    else:
        pytest.fail("non-commuting square accepted")


def test_morphism_checks_one_step_past_the_prefix():
    # identical prefixes, different tail rules: only the continuation breaks
    src = InverseSystem(OMEGA, (Z4, Z4), (MULT2,), "constant")
    tgt = InverseSystem(OMEGA, (Z4, Z4), (MULT2,), "repeat-last-block")
    with pytest.raises(HomomorphismValidationError):
        SystemMorphism(src, tgt, (IDENT, IDENT))


def squares_commute_on_elements(source, target, homs):
    """Every square up to one step past the stored maps, on every element
    of its upper source level (the old check)."""
    def hom_at(j):
        return homs[min(j, len(homs) - 1)]
    return all(hom_at(j)(source.map_at(j)(x))
               == target.map_at(j)(hom_at(j + 1)(x))
               for j in range(len(homs))
               for x in source.level(j + 1).elements())


@given(st.integers(1, 8), st.booleans(), st.integers(0, 2**32))
@settings(max_examples=150, deadline=None)
def test_square_check_on_generators_matches_the_elementwise_check(
        modulus, same, seed):
    rng = random.Random(seed)
    source = random_system(rng, modulus)
    target = source if same else random_system(rng, modulus)
    homs = []
    for j in range(max(source.height, target.height)):
        s_lvl, t_lvl = source.level(j), target.level(j)
        kind = rng.choice(("scalar", "zero", "random"))
        if kind == "scalar" and s_lvl == t_lvl:
            # multiplication by r is natural for every system
            r = rng.randrange(modulus)
            homs.append(Homomorphism.from_function(
                s_lvl, t_lvl, lambda x, m=s_lvl, r=r: m.scal(r, x)))
        elif kind == "zero":
            homs.append(Homomorphism.zero_map(s_lvl, t_lvl))
        else:
            homs.append(random_hom(rng, s_lvl, t_lvl))
    try:
        SystemMorphism(source, target, tuple(homs))
    except HomomorphismValidationError:
        accepted = False
    else:
        accepted = True
    assert accepted == squares_commute_on_elements(source, target, homs)


def test_morphism_level_access_and_epi():
    src = constant_system(Z4)
    phi = SystemMorphism(src, src, (MULT2,))
    assert phi.hom_at(4) == MULT2
    assert phi.first_non_epi_level() is not None
    ident_phi = SystemMorphism(src, src, (IDENT,))
    assert ident_phi.first_non_epi_level() is None
    fin = InverseSystem(from_int(2), (Z4, Z4), (IDENT,), None)
    psi = SystemMorphism(fin, fin, (IDENT, IDENT))
    with pytest.raises(IndexOutOfRangeError):
        psi.hom_at(2)
    assert phi.first_non_epi_level() == 0
    assert ident_phi.first_non_epi_level() is None
    killed = InverseSystem(from_int(2), (Z4, Z4), (ZERO4,), None)
    fin_phi = SystemMorphism(killed, killed, (IDENT, MULT2))
    assert fin_phi.first_non_epi_level() == 1


def test_induced_limit_map_functoriality():
    src = constant_system(Z4)
    f01 = SystemMorphism(src, src, (MULT2,))
    f12 = SystemMorphism(src, src, (MULT2,))
    composed = compose_system_morphisms(f12, f01)
    lhs = induced_limit_map(composed)
    rhs = induced_limit_map(f12).after(induced_limit_map(f01))
    assert lhs == rhs
    with pytest.raises(ParseError):
        compose_system_morphisms(f12, SystemMorphism(
            constant_system(Z2m4), constant_system(Z2m4),
            (Homomorphism.identity(Z2m4),)))


def test_limit_surjectivity_of_quotient():
    src = constant_system(Z4, levels=2)
    tgt = constant_system(Z2m4, levels=2)
    phi = SystemMorphism(src, tgt, (MOD2, MOD2))
    report = check_inverse_limit_surjectivity(phi)
    assert report.limit_epi
    assert report.missed is None
    assert report.to_json()["levelwise_epi"] is True


def test_limit_surjectivity_requires_levelwise_epi():
    src = constant_system(Z4)
    phi = SystemMorphism(src, src, (MULT2,))
    with pytest.raises(LevelwiseNotEpiError, match="level map 0 "):
        check_inverse_limit_surjectivity(phi)
    killed = InverseSystem(OMEGA, (Z4, Z4), (ZERO4,), "constant")
    psi = SystemMorphism(killed, killed, (IDENT, MULT2))
    with pytest.raises(LevelwiseNotEpiError, match="level map 1 "):
        check_inverse_limit_surjectivity(psi)


def test_surjectivity_check_computes_each_limit_once(monkeypatch):
    calls = [0]

    def counted(system, original=limit_object):
        calls[0] += 1
        return original(system)

    monkeypatch.setattr(diagrams, "limit_object", counted)
    src = constant_system(Z4, levels=2)
    tgt = constant_system(Z2m4, levels=2)
    report = check_inverse_limit_surjectivity(
        SystemMorphism(src, tgt, (MOD2, MOD2)))
    assert report.limit_epi and calls[0] == 2
    induced_limit_map(SystemMorphism(src, tgt, (MOD2, MOD2)))
    assert calls[0] == 4


def test_constant_tail_identity_is_built_once(monkeypatch):
    built = [0]

    def identity(module, original=Homomorphism.identity):
        built[0] += 1
        return original(module)

    system = InverseSystem(OMEGA, (Z4, Z4), (IDENT,), "constant")
    monkeypatch.setattr(Homomorphism, "identity", staticmethod(identity))
    twin = InverseSystem(OMEGA, (Z4, Z4), (IDENT,), "constant")
    assert built[0] == 1  # at construction
    past = twin.map_at(1)
    assert past == IDENT and past is twin.map_at(2) is twin.map_at(7)
    limit_object(twin)
    twin.push_down((1,), 9, 0)
    assert built[0] == 1
    # derived, so equality and repr skip it
    assert twin == system
    assert "tail_map" not in repr(twin)


# -- the retraction ---------------------------------------------------------------------

def test_retract_ignores_junk_prefix():
    sys_c = constant_system(Z4)
    lobj = limit_object(sys_c)

    def coord(j):
        return (1,) if j < 1 else (3,)

    assert retract_product_element(sys_c, coord, 1, 0) == (3,)
    assert retract_product_element(
        sys_c, lambda j: lobj.coordinate((2,), j), 0, 0) == (2,)


def two_branch_retraction(system, coord, bound, gamma):
    """The retraction with one branch per index shape and table
    composites (the old retract_product_element)."""
    if system.index != OMEGA:
        top = system.height - 1
        pieces = [(from_int(j - gamma), from_int(j - gamma + 1),
                   composite_by_tables(system, gamma, j)(coord(j)))
                  for j in range(gamma, top + 1)]
        return lim_eval(system.level(gamma), PwcSeq.from_pieces(pieces))
    stop = max(bound, gamma) + 1
    pieces = [(from_int(j - gamma), from_int(j - gamma + 1),
               composite_by_tables(system, gamma, j)(coord(j)))
              for j in range(gamma, stop)]
    pieces.append((from_int(stop - gamma), OMEGA,
                   composite_by_tables(system, gamma, stop)(coord(stop))))
    return lim_eval(system.level(gamma), PwcSeq.from_pieces(pieces))


@given(st.integers(1, 8), st.booleans(), st.integers(0, 2**32))
@settings(max_examples=100, deadline=None)
def test_retraction_matches_the_two_branch_form(modulus, finite, seed):
    rng = random.Random(seed)
    system = random_system(rng, modulus)
    if finite:
        system = _as_finite(system)
    lobj = limit_object(system)
    t = rng.choice(lobj.elements())
    levels = system.height + (system.index == OMEGA)
    junk = [rng.choice(system.level(j).elements())
            for j in range(rng.randint(0, levels))]

    def coord(j):
        return junk[j] if j < len(junk) else lobj.coordinate(t, j)

    for gamma in range(levels):
        assert (retract_product_element(system, coord, len(junk), gamma)
                == two_branch_retraction(system, coord, len(junk), gamma))


def test_threads_and_retraction_build_no_homomorphism(monkeypatch):
    systems = [
        constant_system(Z4, levels=2),
        InverseSystem(OMEGA, (Z4, Z4), (MULT2,), "repeat-last-block"),
        InverseSystem(OMEGA, (Z2m4, Z4, Z4), (MOD2, IDENT), "constant"),
        InverseSystem(from_int(3), (Z2m4, Z4, Z4), (MOD2, MULT2), None),
    ]
    built = []
    original = Homomorphism.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        original(self, *args, **kwargs)
    monkeypatch.setattr(Homomorphism, "__init__", counted)
    for system in systems:
        lobj = limit_object(system)
        levels = system.height + 2 if system.index == OMEGA else system.height
        for t in lobj.elements():
            for gamma in range(levels):
                expected = lobj.coordinate(t, gamma)
                assert retract_product_element(
                    system, lambda j, t=t: lobj.coordinate(t, j), 0,
                    gamma) == expected
    assert built == []


def test_section_check_reports():
    report = lim_to_prod_section_check(constant_system(Z4), trials=8, seed=3)
    assert report.passed
    assert report.levels_checked == 2
    assert report.witness is None
    fin = InverseSystem(from_int(3), (Z2m4, Z4, Z4), (MOD2, MULT2), None)
    report = lim_to_prod_section_check(fin, trials=8)
    assert report.passed
    assert report.levels_checked == 3
    assert report.to_json()["trials"] == 8


def test_section_check_needs_infinitary_theory():
    fin_mod = FiniteMod(4, (4,), infinitary=False)
    sys_f = InverseSystem(
        OMEGA, (fin_mod,), (), "constant")
    with pytest.raises(TheoryMismatchError):
        lim_to_prod_section_check(sys_f)


# -- JSON form ----------------------------------------------------------------------------

def test_system_json_round_trip():
    capped = InverseSystem(OMEGA, (Z2m4, Z4, Z4), (MOD2, IDENT), "constant")
    data = json.loads(json.dumps(system_to_json(capped)))
    assert system_from_json(data) == capped
    fin = InverseSystem(from_int(2), (Z4, Z4), (MULT2,), None)
    assert system_from_json(json.loads(json.dumps(system_to_json(fin)))) == fin


@given(st.integers(1, 8), st.booleans(), st.integers(0, 2**32))
@settings(max_examples=80, deadline=None)
def test_sampled_system_json_round_trip(modulus, infinitary, seed):
    system = random_system(random.Random(seed), modulus,
                           infinitary=infinitary)
    data = json.loads(json.dumps(system_to_json(system)))
    assert system_from_json(data) == system


@pytest.mark.parametrize("mangle,needle", [
    (lambda d: d.pop("index"), "missing field 'index'"),
    (lambda d: d.update(index="w^2"), "diagram.index"),
    (lambda d: d.update(prefix=[]), "diagram.prefix"),
    (lambda d: d.update(prefix=["Z/4", 7]), r"diagram.prefix\[1\]"),
    (lambda d: d.update(maps=[]), "diagram.maps"),
    (lambda d: d["maps"][0].append([[0], [0]]), r"maps\[0\]\[4\]: duplicate"),
    (lambda d: d["maps"][0].__setitem__(0, [[0]]), r"maps\[0\]\[0\]"),
    (lambda d: d["maps"][0].__setitem__(0, [[0], [3]]), r"maps\[0\]"),
    (lambda d: d.update(theory="mystery"), "unknown theory"),
])
def test_system_json_field_errors(mangle, needle):
    tower = InverseSystem(OMEGA, (Z4, Z4), (MULT2,), "repeat-last-block")
    data = system_to_json(tower)
    mangle(data)
    with pytest.raises(ParseError, match=needle):
        system_from_json(data)


def test_system_json_rejects_broken_tail():
    data = system_to_json(constant_system(Z4))
    data["tail"] = "mystery"
    with pytest.raises(ParseError):
        system_from_json(data)
    fin = system_to_json(InverseSystem(from_int(2), (Z4, Z4), (MULT2,), None))
    fin["tail"] = "constant"
    with pytest.raises(ParseError):
        system_from_json(fin)
