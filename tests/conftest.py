"""Shared hypothesis strategies and fixtures."""

import random

import hypothesis.strategies as st
import pytest

from translim import (INDEX, OMEGA, ONE, ZERO, ZERO_TERM, App,
                      DivergentSumError, FiniteMod, Homomorphism, Lim, PwcSeq,
                      Sum, Var, from_int, image, omega_power, parse_ordinal,
                      sample_points_below, scal, standard_battery)
from translim.ordinal import interval_cardinality
from translim.sampling import random_pwc


def ordinals(max_depth: int = 2, max_terms: int = 3, max_coeff: int = 3):
    """Ordinals assembled by summing omega-powers; depth bounds the tower."""
    if max_depth == 0:
        return st.integers(0, 6).map(from_int)
    exponent = ordinals(max_depth - 1, max_terms, max_coeff)
    pair = st.tuples(exponent, st.integers(1, max_coeff))

    def assemble(parts):
        total = ZERO
        for e, c in parts:
            total = total + omega_power(e, c)
        return total

    return st.lists(pair, min_size=0, max_size=max_terms).map(assemble)


positive_ordinals = ordinals().filter(lambda a: not a.is_zero)

battery_modules = st.sampled_from(standard_battery())


@st.composite
def pwc_over(draw, module_strategy=battery_modules, alpha_strategy=None,
             max_cuts=3):
    """(module, family) pairs; family is piecewise constant on [0, alpha)."""
    module = draw(module_strategy)
    alpha = draw(alpha_strategy or positive_ordinals)
    cuts = sorted(set(draw(st.lists(
        st.sampled_from(sample_points_below(alpha) or [alpha]),
        min_size=0, max_size=max_cuts))))
    cuts = [c for c in cuts if c < alpha]
    bounds = [ZERO] + cuts + [alpha]
    elems = st.sampled_from(module.elements())
    pieces = [(lo, hi, draw(elems)) for lo, hi in zip(bounds, bounds[1:])]
    return module, PwcSeq.from_pieces(pieces)


@st.composite
def battery_or_submodules(draw):
    """A standard_battery() instance, or its image under x -> r*x: a
    Submodule, whose operations are those of its parent."""
    module = draw(battery_modules)
    if draw(st.booleans()):
        return module
    r = draw(st.integers(0, module.modulus))
    return image(Homomorphism.from_function(
        module, module, lambda x: module.scal(r, x)))[0]


# the grid below a coefficient c lists every step up to it, so random_pwc
# cuts these lengths into finite pieces of up to thousands of points, next
# to infinite pieces that make a nonzero value divergent
LONG_LENGTHS = [parse_ordinal(t) for t in
                ("5000", "w", "w+4000", "w*2+3000", "w^2+w*3+2500")]


@st.composite
def random_pwc_over(draw):
    """(module, sampling.random_pwc family) pairs on LONG_LENGTHS."""
    module = draw(battery_or_submodules())
    alpha = draw(st.sampled_from(LONG_LENGTHS))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    return module, random_pwc(rng, module, alpha)


def support_if_finite(seq, zero):
    """[(index, value), ...] for the entries != zero, every point of every
    nonzero piece listed, or None if there are infinitely many."""
    out = []
    for lo, hi, v in seq.pieces():
        if v == zero:
            continue
        n = interval_cardinality(lo, hi)
        if n is None:
            return None
        idx = lo
        for _ in range(n):
            out.append((idx, v))
            idx = idx + ONE
    return out


def point_by_point_sum(module, seq):
    """The infinitary sum that lists every point of every nonzero piece and
    adds the values one at a time: the reference for the piecewise sum."""
    support = support_if_finite(seq, module.zero())
    if support is None:
        raise DivergentSumError(
            "family has a nonzero value on an infinite interval")
    total = module.zero()
    for _, v in support:
        total = module.add(total, v)
    return total


def lengthy_pieces(k, length, tail=(0,)):
    """k pieces: k-1 of `length` points with the values 1, 2, 3, 1, ...,
    so that neighbours differ, then `tail` up to w."""
    n = from_int(length)
    pieces = []
    lo = ZERO
    for i in range(k - 1):
        pieces.append((lo, lo + n, (i % 3 + 1,)))
        lo = lo + n
    pieces.append((lo, OMEGA, tail))
    return PwcSeq.from_pieces(pieces)


def _index_points(alpha):
    return [ZERO] + sample_points_below(alpha)


@st.composite
def terms_over(draw, alpha, depth=2, in_family=False):
    choices = ["var", "zero"]
    if in_family:
        choices.append("idx")
    if depth > 0:
        choices += ["plus", "neg", "scal", "node"]
    kind = draw(st.sampled_from(choices))
    if kind == "var":
        return Var(draw(st.sampled_from(_index_points(alpha))))
    if kind == "zero":
        return ZERO_TERM
    if kind == "idx":
        return INDEX
    if kind == "plus":
        return App("+", (draw(terms_over(alpha, depth - 1, in_family)),
                         draw(terms_over(alpha, depth - 1, in_family))))
    if kind == "neg":
        return App("-", (draw(terms_over(alpha, depth - 1, in_family)),))
    if kind == "scal":
        return scal(draw(st.integers(0, 4)),
                    draw(terms_over(alpha, depth - 1, in_family)))
    length = draw(st.sampled_from(
        [p for p in _index_points(alpha) + [alpha] if not p.is_zero]))
    fam = draw(term_families(alpha, length, depth - 1))
    return (Sum if kind == "node" and draw(st.booleans()) else Lim)(length, fam)


@st.composite
def term_families(draw, alpha, length, depth):
    """PwcSeq of terms on [0, length); bodies may use the positional idx."""
    pts = [p for p in sample_points_below(length) if p < length]
    cuts = sorted(set(draw(st.lists(st.sampled_from(pts), max_size=2))
                  if pts else []))
    bounds = [ZERO] + cuts + [length]
    pieces = [(lo, hi, draw(terms_over(alpha, depth, in_family=True)))
              for lo, hi in zip(bounds, bounds[1:])]
    return PwcSeq.from_pieces(pieces)


@pytest.fixture
def module_ops(monkeypatch):
    """A one-item list counting FiniteMod.add, neg, sub and scal calls,
    which a Submodule's operations make too."""
    count = [0]
    for name in ("add", "neg", "sub", "scal"):
        method = getattr(FiniteMod, name)

        def counted(*args, method=method):
            count[0] += 1
            return method(*args)

        monkeypatch.setattr(FiniteMod, name, counted)
    return count
