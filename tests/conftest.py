"""Shared hypothesis strategies and fixtures."""

import hypothesis.strategies as st

from translim import PwcSeq, ZERO, from_int, omega_power, standard_battery


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
    from translim import sample_points_below
    cuts = sorted(set(draw(st.lists(
        st.sampled_from(sample_points_below(alpha) or [alpha]),
        min_size=0, max_size=max_cuts))))
    cuts = [c for c in cuts if c < alpha]
    bounds = [ZERO] + cuts + [alpha]
    elems = st.sampled_from(module.elements())
    pieces = [(lo, hi, draw(elems)) for lo, hi in zip(bounds, bounds[1:])]
    return module, PwcSeq.from_pieces(pieces)

