"""Inverse systems of finite module instances and their limits.

A system is indexed by omega or by a finite ordinal.  An omega-system is
stored as a finite prefix of levels plus a tail rule saying how the system
continues: "constant" repeats the last level with identity maps, and
"repeat-last-block" repeats the last map (which therefore must be an
endomorphism of the last level).

Beyond the prefix such a system is one endomorphism G iterating on one
level, so the limit has a finite model: the set of anchor values realized
by threads is the stabilized image of G, on which G is bijective.  The
number of iterations needed for the image chain to stabilize is the depth
reported by limit_object; it is the effective Mittag-Leffler certificate
for the system.  A finite index or a constant tail takes the identity as
G, so the chain is stable at once: the limit is the top level itself.

Thread coordinates and the product retraction push single elements down
the maps (InverseSystem.push_down); no composite table is ever built.
"""

from __future__ import annotations

import random

from .errors import (
    HomomorphismValidationError,
    IndexOutOfRangeError,
    InfiniteCarrierError,
    InvalidAlphaError,
    LevelwiseNotEpiError,
    ParseError,
    TheoryMismatchError,
    TranslimError,
)
from .frozen import Frozen, set_field
from .instances import (
    FiniteMod,
    Homomorphism,
    Submodule,
    is_regular_epi,
    parse_instance,
    parse_theory,
    zero_module,
)
from .ordinal import OMEGA, Ordinal, format_ordinal, from_int
from .pwcseq import PwcSeq
from .transfinite import lim_eval

_TAIL_RULES = ("constant", "repeat-last-block")


class InverseSystem(Frozen):
    """Levels M_0 <- M_1 <- ... with maps[j] : level j+1 -> level j."""

    __slots__ = ("index", "prefix", "maps", "tail", "tail_map")
    # tail_map is every map past the prefix: the last map under
    # repeat-last-block, else the identity of the top level; derived, so
    # equality, hash and repr skip it
    _fields = ("index", "prefix", "maps", "tail")

    def __init__(self, index: Ordinal, prefix: tuple, maps: tuple,
                 tail: str | None = "constant"):
        if not prefix:
            raise InvalidAlphaError("a system needs at least one level")
        if len(maps) != len(prefix) - 1:
            raise ParseError(
                f"{len(prefix)} levels need {len(prefix) - 1} maps")
        th = prefix[0].theory
        for lvl in prefix:
            if not lvl.is_finite:
                raise InfiniteCarrierError("system levels must be finite")
            if lvl.theory != th:
                raise TheoryMismatchError("levels over different theories")
        for j, f in enumerate(maps):
            if f.domain != prefix[j + 1] or f.codomain != prefix[j]:
                raise ParseError(
                    f"map {j} must go from level {j + 1} to level {j}")
        if index == OMEGA:
            if tail not in _TAIL_RULES:
                raise ParseError(
                    f"tail rule must be one of {_TAIL_RULES}, got {tail!r}")
            if tail == "repeat-last-block":
                if len(prefix) < 2 or prefix[-1] != prefix[-2]:
                    raise ParseError(
                        "repeat-last-block needs equal last two levels")
        elif index.is_finite and not index.is_zero:
            if index.to_int() != len(prefix):
                raise ParseError(
                    f"finite index {index.to_int()} must equal the "
                    f"number of levels {len(prefix)}")
            if tail is not None:
                raise ParseError("finite systems take no tail rule")
        else:
            raise InvalidAlphaError(
                f"system index must be omega or finite >= 1, "
                f"got {format_ordinal(index)}")
        set_field(self, "index", index)
        set_field(self, "prefix", prefix)
        set_field(self, "maps", maps)
        set_field(self, "tail", tail)
        set_field(self, "tail_map", maps[-1] if tail == "repeat-last-block"
                  else Homomorphism.identity(prefix[-1]))

    @property
    def height(self) -> int:
        return len(self.prefix)

    @property
    def theory(self):
        return self.prefix[0].theory

    def level(self, j: int):
        if j < self.height:
            return self.prefix[j]
        if self.index != OMEGA:
            raise IndexOutOfRangeError(
                f"level {j} of a height-{self.height} finite system")
        return self.prefix[-1]

    def map_at(self, j: int) -> Homomorphism:
        """The map from level j+1 to level j."""
        if j < self.height - 1:
            return self.maps[j]
        if self.index != OMEGA:
            raise IndexOutOfRangeError(
                f"map {j} of a height-{self.height} finite system")
        return self.tail_map

    def push_down(self, x, j: int, i: int):
        """The image at level i of the level-j element x (i <= j), one table
        lookup per map; past the prefix every step is the tail map, and the
        identity steps of a constant tail are skipped."""
        if i > j:
            raise IndexOutOfRangeError(f"no map from level {j} up to {i}")
        top = self.height - 1
        if j > top:
            if self.index != OMEGA:
                raise IndexOutOfRangeError(
                    f"level {j} of a height-{self.height} finite system")
            if self.tail == "constant":
                j = max(top, i)
            else:
                step = self.tail_map.table
                while j > top and j > i:
                    x = step[x]
                    j -= 1
        for f in reversed(self.maps[i:j]):
            x = f.table[x]
        return x


class LimitObject:
    """The inverse limit, modeled on a submodule of one anchor level.

    A thread is determined by its anchor value; coordinates below the
    anchor are pushed down along the system, coordinates above are
    recovered through the inverse of the tail endomorphism, which is
    bijective on the carrier.
    """

    __slots__ = ("system", "anchor", "carrier", "depth", "_lift")

    def __init__(self, system, anchor, carrier, depth, lift):
        self.system = system
        self.anchor = anchor
        self.carrier = carrier
        self.depth = depth
        self._lift = lift

    def elements(self):
        return self.carrier.elements()

    def coordinate(self, x, j: int):
        """The level-j value of the thread with anchor value x."""
        if not self.carrier.contains(x):
            raise IndexOutOfRangeError(f"{x!r} is not a thread anchor value")
        if j <= self.anchor:
            return self.system.push_down(x, self.anchor, j)
        if self.system.index != OMEGA:
            raise IndexOutOfRangeError(
                f"level {j} of a finite system of height {self.system.height}")
        y = x
        for _ in range(j - self.anchor):
            y = self._lift[y]
        return y


def limit_object(system: InverseSystem) -> LimitObject:
    """Compute the limit of the system as a LimitObject.

    The image chain of the tail map on the top level is iterated until it
    stabilizes; the number of steps is the reported depth.  A finite index
    or a constant tail has the identity as its tail map, so its carrier is
    the whole top level, at depth 0, with the identity as its lift, and no
    chain is run.  The chain is a chain of subgroups and each strict step
    at least halves the size, so the depth is at most log2 of the size of
    the top level.
    """
    top = system.prefix[-1]
    current = set(top.elements())
    gens = top.generators()
    depth = 0
    if system.tail != "repeat-last-block":
        lift = dict(zip(current, current))
    else:
        step = system.tail_map.table.__getitem__
        while (nxt := set(map(step, current))) != current:
            depth += 1
            current = nxt
            gens = [step(g) for g in gens]
        lift = dict(zip(map(step, current), current))
        # on the stabilized image the endomorphism is onto, hence bijective
        if len(lift) != len(current):
            raise TranslimError(
                f"the endomorphism is not injective on the stabilized image "
                f"({len(current)} elements, {len(lift)} distinct images)")
    # the image of endo^depth is spanned by the images of the generators
    carrier = Submodule(top, current, tuple(gens))
    return LimitObject(system, system.height - 1, carrier, depth, lift)


def colimit_object(system: InverseSystem):
    """The colimit of the diagram; the index shape makes it level 0."""
    return system.level(0)


# -- extension by zero ---------------------------------------------------------


def extend_by_zero_system(module, beta: Ordinal, alpha: Ordinal) -> InverseSystem:
    """The system over alpha equal to module at levels <= beta, zero above.

    Maps are identities inside each constant stretch and the zero map at
    the seam.  The cut must be finite and lie below the index.
    """
    if not beta.is_finite:
        raise IndexOutOfRangeError("the cut must sit in the finite prefix")
    if not beta < alpha:
        raise IndexOutOfRangeError(
            f"cut {format_ordinal(beta)} must lie below the index "
            f"{format_ordinal(alpha)}")
    b = beta.to_int()
    th = module.theory
    z = zero_module(th.modulus, th.infinitary)
    # over omega: one zero level past the cut, repeated by a constant tail
    if alpha == OMEGA:
        n, tail = b + 2, "constant"
    elif alpha.is_finite:
        n, tail = alpha.to_int(), None
    else:
        raise InvalidAlphaError("concrete systems need a finite or omega index")
    levels = tuple(module if g <= b else z for g in range(n))
    maps = tuple(Homomorphism.identity(hi) if hi == lo
                 else Homomorphism.zero_map(hi, lo)
                 for lo, hi in zip(levels, levels[1:]))
    return InverseSystem(alpha, levels, maps, tail)


def extend_by_zero_comparison(module, beta_lo: Ordinal, beta_hi: Ordinal,
                              alpha: Ordinal) -> "SystemMorphism":
    """The canonical morphism from the smaller-cut system to the larger.

    Identity where both systems carry the module or both are zero, the
    zero map in between; every square is verified on construction.
    """
    if beta_hi < beta_lo:
        raise IndexOutOfRangeError("the comparison goes from the smaller cut")
    source = extend_by_zero_system(module, beta_lo, alpha)
    target = extend_by_zero_system(module, beta_hi, alpha)
    homs = []
    for j in range(_stored_level_maps(source, target)):
        s_lvl, t_lvl = source.level(j), target.level(j)
        if s_lvl == t_lvl:
            homs.append(Homomorphism.identity(s_lvl))
        else:
            homs.append(Homomorphism.zero_map(s_lvl, t_lvl))
    return SystemMorphism(source, target, tuple(homs))


# -- morphisms of systems --------------------------------------------------------


def _stored_level_maps(source: InverseSystem, target: InverseSystem) -> int:
    """Level maps a morphism stores: one per level of the taller prefix over
    omega (the last repeats beyond it), one per level of a finite system."""
    if source.index == OMEGA:
        return max(source.height, target.height)
    return source.height


class SystemMorphism:
    """A levelwise map of systems with every naturality square verified.

    Both systems continue periodically beyond their prefixes and the last
    level map is repeated with them, so checking squares up to one step
    past the taller prefix checks them all.  Each square is checked on the
    generators of its upper source level: both ways round it are
    homomorphisms, and homomorphisms that agree on generators agree
    everywhere.
    """

    __slots__ = ("source", "target", "homs", "_limits")

    def __init__(self, source: InverseSystem, target: InverseSystem, homs):
        if source.index != target.index:
            raise ParseError("systems over different index shapes")
        need = _stored_level_maps(source, target)
        if len(homs) != need:
            raise ParseError(f"need {need} level maps, got {len(homs)}")
        self.source = source
        self.target = target
        self.homs = tuple(homs)
        self._limits = None
        top = need if source.index == OMEGA else need - 1
        for j in range(top + 1):
            h = self.hom_at(j)
            if h.domain != source.level(j) or h.codomain != target.level(j):
                raise ParseError(f"level map {j} has the wrong endpoints")
        for j in range(top):
            h_lo, h_hi = self.hom_at(j), self.hom_at(j + 1)
            m_src, m_tgt = source.map_at(j), target.map_at(j)
            for x in source.level(j + 1).generators():
                if h_lo(m_src(x)) != m_tgt(h_hi(x)):
                    raise HomomorphismValidationError(
                        f"square {j} does not commute", (j, x))

    def hom_at(self, j: int) -> Homomorphism:
        if j < len(self.homs):
            return self.homs[j]
        if self.source.index != OMEGA:
            raise IndexOutOfRangeError(f"level map {j} of a finite morphism")
        return self.homs[-1]

    def first_non_epi_level(self) -> int | None:
        """The first level whose map is not surjective, or None.  Past the
        stored maps hom_at only repeats the last one."""
        return next((j for j, h in enumerate(self.homs)
                     if not is_regular_epi(h)), None)

    def _limit_objects(self):
        if self._limits is None:
            self._limits = limit_object(self.source), limit_object(self.target)
        return self._limits


def induced_limit_map(phi: SystemMorphism) -> Homomorphism:
    """The map the morphism induces between the two limits.

    A source thread is sent to the target thread whose anchor value is the
    image of the source thread's coordinate at the target anchor.  Building
    this as a verified Homomorphism also certifies that thread images are
    threads.
    """
    ls, lt = phi._limit_objects()
    a = lt.anchor
    table = {x: phi.hom_at(a)(ls.coordinate(x, a)) for x in ls.elements()}
    return Homomorphism(ls.carrier, lt.carrier, table=table)


def compose_system_morphisms(second: SystemMorphism,
                             first: SystemMorphism) -> SystemMorphism:
    """Levelwise composite second . first, re-verified on construction."""
    if first.target != second.source:
        raise ParseError("morphisms do not compose: middle systems differ")
    source, target = first.source, second.target
    homs = tuple(second.hom_at(j).after(first.hom_at(j))
                 for j in range(_stored_level_maps(source, target)))
    return SystemMorphism(source, target, homs)


class SurjectivityReport(Frozen):
    __slots__ = ("limit_epi", "source_depth", "target_depth", "missed")

    def __init__(self, limit_epi: bool, source_depth: int, target_depth: int,
                 missed: str | None):
        self._set_fields(limit_epi, source_depth, target_depth, missed)

    def to_json(self) -> dict:
        return {"levelwise_epi": True, "limit_epi": self.limit_epi,
                "source_depth": self.source_depth,
                "target_depth": self.target_depth, "missed": self.missed}


def check_inverse_limit_surjectivity(phi: SystemMorphism) -> SurjectivityReport:
    """Whether a levelwise-surjective morphism stays surjective on limits.

    Raises LevelwiseNotEpiError when the input is not levelwise surjective;
    the question only concerns regular epimorphisms of systems.
    """
    bad = phi.first_non_epi_level()
    if bad is not None:
        raise LevelwiseNotEpiError(f"level map {bad} is not surjective")
    ls, lt = phi._limit_objects()
    f = induced_limit_map(phi)
    hit = {f(x) for x in ls.elements()}
    missed = sorted(set(lt.elements()) - hit)
    return SurjectivityReport(
        limit_epi=not missed,
        source_depth=ls.depth,
        target_depth=lt.depth,
        missed=lt.carrier.format_element(missed[0]) if missed else None,
    )


# -- the product retraction, computed with the limit recursion --------------------


class SectionReport(Frozen):
    __slots__ = ("trials", "levels_checked", "passed", "witness")

    def __init__(self, trials: int, levels_checked: int, passed: bool,
                 witness: dict | None):
        self._set_fields(trials, levels_checked, passed, witness)

    def to_json(self) -> dict:
        return {"trials": self.trials, "levels_checked": self.levels_checked,
                "passed": self.passed, "witness": self.witness}


def retract_product_element(system: InverseSystem, coord, bound: int,
                            gamma: int):
    """Level-gamma retraction value for a product element given by coord.

    coord(j) is the j-th coordinate; it must be a thread from `bound` on.
    The value is the limit of the pushdowns of the coordinates above gamma,
    evaluated with the difference-and-sum recursion.  Each level from gamma
    to the last one is a piece of length 1, except that over omega the
    last piece, at the first level past `bound`, runs to omega.  The
    pieces tile [0, end) by construction.
    """
    if system.index == OMEGA:
        last = max(bound, gamma) + 1
        end = OMEGA
    else:
        last = system.height - 1
        end = from_int(last - gamma + 1)
    pieces = [(from_int(j - gamma),
               from_int(j - gamma + 1) if j < last else end,
               system.push_down(coord(j), j, gamma))
              for j in range(gamma, last + 1)]
    return lim_eval(system.level(gamma), PwcSeq._from_pieces(end, pieces))


def lim_to_prod_section_check(system: InverseSystem, *, trials: int = 20,
                              seed: int = 0) -> SectionReport:
    """Audit the retraction of the limit-into-product inclusion.

    For random product elements that are a junk prefix followed by a
    thread, the retraction built from the limit recursion must recover the
    thread at every level, be the identity on honest threads, and ignore
    the junk prefix entirely.  The retraction is assembled from limit
    terms, so it needs the infinitary theory.
    """
    if not system.theory.infinitary:
        raise TheoryMismatchError(
            "the retraction is built from limit terms of the infinitary theory")
    rng = random.Random(seed)
    lobj = limit_object(system)
    threads = lobj.elements()
    if system.index == OMEGA:
        levels_checked = system.height + 1
        max_junk = system.height + 1
    else:
        levels_checked = system.height
        max_junk = system.height - 1
    for trial in range(trials):
        t = rng.choice(threads)
        junk_len = rng.randint(0, max_junk)
        junk = [rng.choice(system.level(j).elements())
                for j in range(junk_len)]

        def coord(j, junk=junk, t=t):
            if j < len(junk):
                return junk[j]
            return lobj.coordinate(t, j)

        def pure(j, t=t):
            return lobj.coordinate(t, j)

        for gamma in range(levels_checked):
            expected = lobj.coordinate(t, gamma)
            got = retract_product_element(system, coord, junk_len, gamma)
            same = retract_product_element(system, pure, 0, gamma)
            if got != expected or same != expected:
                witness = {
                    "trial": trial,
                    "level": gamma,
                    "expected": system.level(gamma).format_element(expected),
                    "with_junk": system.level(gamma).format_element(got),
                    "pure_thread": system.level(gamma).format_element(same),
                }
                return SectionReport(trial + 1, levels_checked, False, witness)
    return SectionReport(trials, levels_checked, True, None)


# -- JSON form -------------------------------------------------------------------


def _level_from_literal(text: str, theory) -> FiniteMod:
    level = parse_instance(text)
    if not isinstance(level, FiniteMod):
        raise ParseError(f"expected Z/<n> or 0, got {text.strip()!r}")
    for m in level.shape:
        if theory.modulus % m:
            raise ParseError(f"component order {m} does not divide the "
                             f"modulus {theory.modulus}")
    return FiniteMod(theory.modulus, level.shape, theory.infinitary)


def system_to_json(system: InverseSystem) -> dict:
    idx = "w" if system.index == OMEGA else str(system.index.to_int())
    maps = []
    for j, f in enumerate(system.maps):
        dom, cod = system.prefix[j + 1], system.prefix[j]
        maps.append([[dom.element_to_json(x), cod.element_to_json(y)]
                     for x, y in sorted(f.table.items())])
    return {
        "index": idx,
        "theory": system.theory.literal,
        "prefix": [level.literal for level in system.prefix],
        "tail": system.tail,
        "maps": maps,
    }


def _field(data, key):
    if key not in data:
        raise ParseError(f"diagram: missing field {key!r}")
    return data[key]


def system_from_json(data: dict) -> InverseSystem:
    if not isinstance(data, dict):
        raise ParseError("diagram: expected an object")
    idx_text = _field(data, "index")
    if idx_text == "w":
        index = OMEGA
    else:
        try:
            n = int(idx_text)
        except (TypeError, ValueError):
            n = 0
        if n < 1:
            raise ParseError('diagram.index: expected "w" or an integer '
                             'string of at least 1')
        index = from_int(n)
    theory_text = _field(data, "theory")
    if not isinstance(theory_text, str):
        raise ParseError("diagram.theory: expected a theory literal string")
    theory = parse_theory(theory_text)
    prefix_data = _field(data, "prefix")
    if not isinstance(prefix_data, list) or not prefix_data:
        raise ParseError("diagram.prefix: expected a nonempty list")
    levels = []
    for i, text in enumerate(prefix_data):
        if not isinstance(text, str):
            raise ParseError(f"diagram.prefix[{i}]: expected a string literal")
        try:
            levels.append(_level_from_literal(text, theory))
        except ParseError as exc:
            raise ParseError(f"diagram.prefix[{i}]: {exc}") from None
    maps_data = _field(data, "maps")
    if not isinstance(maps_data, list) or len(maps_data) != len(levels) - 1:
        raise ParseError(
            f"diagram.maps: expected {len(levels) - 1} map tables")
    maps = []
    for j, rows in enumerate(maps_data):
        dom, cod = levels[j + 1], levels[j]
        if not isinstance(rows, list):
            raise ParseError(f"diagram.maps[{j}]: expected a list of pairs")
        table = {}
        for i, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != 2:
                raise ParseError(
                    f"diagram.maps[{j}][{i}]: expected [domain, codomain]")
            x = dom.element_from_json(row[0])
            if x in table:
                raise ParseError(
                    f"diagram.maps[{j}][{i}]: duplicate domain element")
            table[x] = cod.element_from_json(row[1])
        try:
            maps.append(Homomorphism(dom, cod, table=table))
        except HomomorphismValidationError as exc:
            raise ParseError(f"diagram.maps[{j}]: {exc}") from None
    tail = _field(data, "tail")
    return InverseSystem(index, tuple(levels), tuple(maps), tail)
