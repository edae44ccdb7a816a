"""Seeded random generators for elements, families, and inverse systems.

Everything takes an explicit random.Random so runs are reproducible from a
seed.  Breakpoints are drawn from the structural grid sample_points_below,
which keeps random families honest about where a piecewise-constant family
over a transfinite index can actually change.  Families are drawn straight
into their pieces, which tile by construction: grid points are distinct and
lie in [1, alpha).  The grid is read as its cached tuple, which random's
sample and choice index as they would a list.
"""

from __future__ import annotations

import math

from .errors import check_enumeration
from .instances import FiniteMod, Homomorphism
from .ordinal import OMEGA, ZERO, Ordinal, _sample_grid, left_subtract
from .pwcseq import PwcSeq


def random_element(rng, module):
    """The draw of rng.choice(module.elements()); a FiniteMod decodes the
    index in mixed radix, last coordinate fastest, and lists no carrier."""
    if not isinstance(module, FiniteMod):
        return rng.choice(module.elements())
    index = rng.randrange(math.prod(module.shape))
    digits = []
    for m in reversed(module.shape):
        index, d = divmod(index, m)
        digits.append(d)
    return tuple(reversed(digits))


def _random_pieces(rng, module, lo: Ordinal, hi: Ordinal) -> list:
    """Pieces of a random family on [lo, hi), lo < hi: at most three points
    of the grid below hi - lo, shifted by lo, as breakpoints, and one
    random element per piece."""
    grid = _sample_grid(left_subtract(lo, hi))
    bounds = [lo]
    if grid:
        k = rng.randint(0, min(3, len(grid)))
        bounds += [lo + p for p in sorted(rng.sample(grid, k))]
    bounds.append(hi)
    return [(a, b, random_element(rng, module))
            for a, b in zip(bounds, bounds[1:])]


def random_pwc(rng, module, alpha: Ordinal) -> PwcSeq:
    """Random piecewise-constant family of module elements on [0, alpha)."""
    if alpha.is_zero:
        return PwcSeq.empty()
    return PwcSeq._from_pieces(alpha,
                               _random_pieces(rng, module, ZERO, alpha))


def random_tail_agreeing_pair(rng, module, alpha: Ordinal):
    """Two assignments on [0, alpha) differing only below some beta < alpha.

    Returns (a, b, beta).  When alpha == 1 the only final segment is the
    whole interval, so the pair is equal and beta is 0.  The shared tail
    on [beta, alpha) is drawn first, then the prefix of a, then that of b.
    """
    grid = _sample_grid(alpha)
    if not grid:
        a = random_pwc(rng, module, alpha)
        return a, a, ZERO
    beta = rng.choice(grid)
    tail = _random_pieces(rng, module, beta, alpha)
    a = PwcSeq._from_pieces(
        alpha, _random_pieces(rng, module, ZERO, beta) + tail)
    b = PwcSeq._from_pieces(
        alpha, _random_pieces(rng, module, ZERO, beta) + tail)
    return a, b, beta


def random_support_family(rng, module, alpha: Ordinal) -> PwcSeq:
    """Random family that vanishes off at most three grid positions."""
    grid = (ZERO,) + _sample_grid(alpha) if not alpha.is_zero else ()
    k = rng.randint(0, min(3, len(grid)))
    entries = [(p, random_element(rng, module)) for p in rng.sample(grid, k)]
    return PwcSeq.from_support(entries, alpha, module.zero())


# -- homomorphisms and systems -------------------------------------------------


def random_divisor_shape(rng, modulus: int, max_rank: int = 2,
                         max_size: int = 8) -> tuple:
    """Up to max_rank divisors of modulus with product at most max_size.
    The divisors are found by trial division up to isqrt(modulus), which
    is refused past the enumeration limit before it starts."""
    root = math.isqrt(modulus)
    check_enumeration(root, lambda: f"the divisor scan of {modulus}")
    small = [d for d in range(1, root + 1) if modulus % d == 0]
    divisors = small + [modulus // d for d in reversed(small)
                        if d * d != modulus]
    while True:
        shape = tuple(rng.choice(divisors) for _ in range(rng.randint(0, max_rank)))
        if math.prod(shape) <= max_size:
            return shape


def random_hom(rng, domain: FiniteMod, codomain) -> Homomorphism:
    """Random linear map, generator images drawn with compatible order."""
    images = []
    for m in domain.shape:
        # e_i has order m, so its image must be killed by m
        candidates = [c for c in codomain.elements()
                      if codomain.scal(m, c) == codomain.zero()]
        images.append(rng.choice(candidates))
    return Homomorphism.from_generator_images(domain, codomain, images)


def random_system(rng, modulus: int, *, infinitary: bool = True):
    """Random inverse system over omega, 1 to 4 levels, random tail rule."""
    from .diagrams import InverseSystem
    n_levels = rng.randint(1, 4)
    levels = tuple(FiniteMod(modulus, random_divisor_shape(rng, modulus),
                             infinitary)
                   for _ in range(n_levels))
    maps = tuple(random_hom(rng, levels[j + 1], levels[j])
                 for j in range(n_levels - 1))
    tail = "constant"
    if n_levels >= 2 and levels[-1] == levels[-2] and rng.random() < 0.5:
        tail = "repeat-last-block"
    return InverseSystem(OMEGA, levels, maps, tail)


def random_surjective_system_morphism(rng, modulus: int):
    """A levelwise-surjective morphism of omega-systems, by construction.

    The target is a random_system of the infinitary theory; source level j
    is target level j times a random factor, the morphism is the
    projection, and the source maps are (target map, random map), so every
    square commutes and every level map is onto.  No rejection sampling is
    involved.  Factors are budgeted so source levels stay within 8
    elements.
    """
    from .diagrams import InverseSystem, SystemMorphism
    target = random_system(rng, modulus)
    height = len(target.prefix)
    factors = [random_divisor_shape(
        rng, modulus, max_rank=1,
        max_size=max(1, 8 // target.prefix[j].size))
        for j in range(height)]
    if target.tail == "repeat-last-block":
        factors[-1] = factors[-2]
    src_levels = tuple(
        FiniteMod(modulus, target.prefix[j].shape + factors[j])
        for j in range(height))
    # both kinds of map are linear: each extends its generator images
    homs = tuple(
        Homomorphism.from_generator_images(
            src, tgt, [e[:len(tgt.shape)] for e in src.generators()])
        for src, tgt in zip(src_levels, target.prefix))
    src_maps = []
    for j in range(height - 1):
        m2 = target.maps[j]
        g = random_hom(rng, src_levels[j + 1], FiniteMod(modulus, factors[j]))
        k = len(target.prefix[j + 1].shape)
        src_maps.append(Homomorphism.from_generator_images(
            src_levels[j + 1], src_levels[j],
            [m2(e[:k]) + g(e) for e in src_levels[j + 1].generators()]))
    source = InverseSystem(OMEGA, src_levels, tuple(src_maps), target.tail)
    return SystemMorphism(source, target, homs)
