"""Seeded sampling: draws that skip enumeration equal the enumerating ones."""

import math
import random

import pytest
from conftest import battery_or_submodules, ordinals
from hypothesis import given, settings
from hypothesis import strategies as st

from translim import FiniteMod, PwcSeq, ResourceLimitError
from translim.errors import ENUMERATION_LIMIT
from translim.ordinal import ZERO, left_subtract, sample_points_below
from translim.sampling import (random_divisor_shape, random_element,
                               random_pwc, random_support_family,
                               random_tail_agreeing_pair)


def enumerating_random_element(rng, module):
    """The reference draw: one choice from the whole carrier."""
    return rng.choice(module.elements())


SHAPES = [(), (1,), (2,), (7,), (2, 2), (1, 3), (4, 6), (3, 1, 2), (2, 3, 4)]


@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_random_element_draws_what_the_enumerating_choice_draws(shape):
    module = FiniteMod(math.lcm(1, *shape), shape)
    for seed in range(300):
        new, old = random.Random(seed), random.Random(seed)
        for _ in range(20):
            assert random_element(new, module) == \
                enumerating_random_element(old, module)
        # the same amount of the random stream was consumed
        assert new.random() == old.random()


class _RecordingRng:
    """Records the list random_divisor_shape chooses from; draws rank 1."""

    def randint(self, lo, hi):
        return 1

    def choice(self, seq):
        self.seen = list(seq)
        return seq[0]


def test_random_divisor_shape_chooses_from_the_ascending_divisors():
    for n in range(1, 3000):
        rng = _RecordingRng()
        assert random_divisor_shape(rng, n, max_rank=1) == (1,)
        assert rng.seen == [d for d in range(1, n + 1) if n % d == 0], n


def test_the_divisor_scan_is_refused_past_the_enumeration_limit():
    # the scan runs to isqrt(modulus): the limit squared is the last
    # modulus scanned, and the next square is refused before any draw
    rng = _RecordingRng()
    assert random_divisor_shape(rng, ENUMERATION_LIMIT ** 2, max_rank=1) \
        == (1,)
    assert ENUMERATION_LIMIT in rng.seen
    rng = _RecordingRng()
    with pytest.raises(ResourceLimitError, match="the divisor scan of"):
        random_divisor_shape(rng, (ENUMERATION_LIMIT + 1) ** 2)
    assert not hasattr(rng, "seen")


# -- the draws of a family ---------------------------------------------------
# The bodies the family draws had before they drew straight into pieces: a
# list copy of the grid, a validating from_pieces, and a pair glued from
# three families by concat.


def reference_breakpoints(rng, alpha):
    grid = sample_points_below(alpha)
    if not grid:
        return []
    k = rng.randint(0, min(3, len(grid)))
    return sorted(rng.sample(grid, k))


def reference_random_pwc(rng, module, alpha):
    if alpha.is_zero:
        return PwcSeq.empty()
    bounds = [ZERO] + reference_breakpoints(rng, alpha) + [alpha]
    pieces = [(lo, hi, random_element(rng, module))
              for lo, hi in zip(bounds, bounds[1:])]
    return PwcSeq.from_pieces(pieces)


def reference_tail_agreeing_pair(rng, module, alpha):
    grid = sample_points_below(alpha)
    if not grid:
        a = reference_random_pwc(rng, module, alpha)
        return a, a, ZERO
    beta = rng.choice(grid)
    tail = reference_random_pwc(rng, module, left_subtract(beta, alpha))
    a = reference_random_pwc(rng, module, beta).concat(tail)
    b = reference_random_pwc(rng, module, beta).concat(tail)
    return a, b, beta


def reference_support_family(rng, module, alpha):
    grid = [ZERO] + sample_points_below(alpha) if not alpha.is_zero else []
    k = rng.randint(0, min(3, len(grid)))
    entries = [(p, random_element(rng, module)) for p in rng.sample(grid, k)]
    return PwcSeq.from_support(entries, alpha, module.zero())


@settings(max_examples=300, deadline=None)
@given(battery_or_submodules(), ordinals(max_depth=3),
       st.integers(0, 2 ** 32))
def test_families_are_drawn_as_the_reference_draws_them(module, alpha, seed):
    new, old = random.Random(seed), random.Random(seed)
    for _ in range(3):
        assert random_pwc(new, module, alpha) == \
            reference_random_pwc(old, module, alpha)
        assert random_tail_agreeing_pair(new, module, alpha) == \
            reference_tail_agreeing_pair(old, module, alpha)
        assert random_support_family(new, module, alpha) == \
            reference_support_family(old, module, alpha)
    # the same calls consumed the same part of the random stream
    assert new.getstate() == old.getstate()
