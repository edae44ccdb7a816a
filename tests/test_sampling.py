"""Seeded sampling: draws that skip enumeration equal the enumerating ones."""

import math
import random

import pytest

from translim import FiniteMod
from translim.sampling import random_divisor_shape, random_element


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
