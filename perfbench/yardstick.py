"""A fixed pure-Python yardstick for how fast the machine runs right now.

On a shared machine the same Python work takes up to a third longer for
stretches of seconds to minutes, which swamps the differences a benchmark
looks for.  run.py times this kernel after every verdict and reports each
verdict's time scaled to a machine on which the kernel takes REFERENCE_NS:

    scaled = raw * REFERENCE_NS / (mean kernel time just before and after)

The kernel does what translim's hot paths do (frozen slotted dataclasses,
tuple keys, dict updates, rich comparisons, a sort) and never touches
translim, so no change to translim can move it.  Raw times are kept in the
run's detail file next to the scaled ones.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

REFERENCE_NS = 1_000_000
ROUNDS = 500


@dataclass(frozen=True, slots=True)
class _Node:
    key: tuple
    value: int

    def __lt__(self, other):
        return self.key < other.key


def _kernel(rounds: int) -> int:
    table = {}
    items = []
    acc = 0
    for i in range(rounds):
        key = (i % 13, (i * 7) % 11, i % 5)
        node = _Node(key, i)
        items.append(node)
        table[key] = table.get(key, 0) + 1
        if len(items) > 1 and items[-2] < node:
            acc += 1
        acc += sum(x for x in key if x)
    items.sort()
    return acc + len(table)


def kernel_ns() -> int:
    """Wall time of one run of the kernel, in nanoseconds."""
    start = time.perf_counter_ns()
    _kernel(ROUNDS)
    return time.perf_counter_ns() - start


def scale(raw_ns: int, before_ns: int, after_ns: int) -> float:
    """raw_ns at reference speed, from kernel times around the measurement."""
    return raw_ns * 2 * REFERENCE_NS / (before_ns + after_ns)
