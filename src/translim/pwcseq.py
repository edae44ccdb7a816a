"""Piecewise-constant sequences indexed by an ordinal.

A PwcSeq of length a is a family (m_g) for g < a that is constant on finitely
many half-open intervals [b_i, b_{i+1}) with 0 = b_0 < b_1 < ... < b_k = a.
This is the finite representation through which every transfinite family in
this package travels.  The normal form coalesces equal neighbours, so
structural equality is extensional equality.

Values are arbitrary (module elements, terms, ordinals); the sequence itself
never interprets them except to compare with == while coalescing.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from .errors import (
    IndexOutOfRangeError,
    LengthMismatchError,
    ParseError,
)
from .ordinal import (
    ZERO,
    ONE,
    Ordinal,
    _OrdParser,
    format_ordinal,
    from_int,
    left_subtract,
)


def _normalize(pieces):
    """Drop empty intervals, coalesce equal neighbours; pieces must tile."""
    out = []
    for lo, hi, v in pieces:
        if lo == hi:
            continue
        if out and out[-1][2] == v:
            out[-1] = (out[-1][0], hi, v)
        else:
            out.append((lo, hi, v))
    return out


@dataclass(frozen=True, slots=True)
class PwcSeq:
    length: Ordinal
    breakpoints: tuple  # (0, b_1, ..., length); just (0,) when length == 0
    values: tuple       # one value per interval

    # -- constructors --------------------------------------------------------

    @staticmethod
    def _from_pieces(length, pieces):
        pieces = _normalize(pieces)
        if not pieces:
            return PwcSeq(ZERO, (ZERO,), ())
        # zip builds each tuple at its final size; tuple() over a generator
        # resizes it, and resized tuples pile up in CPython's per-size tuple
        # free lists, which keep them until a full garbage collection
        starts, ends, values = zip(*pieces)
        return PwcSeq(length, starts + ends[-1:], values)

    @staticmethod
    def empty():
        return PwcSeq(ZERO, (ZERO,), ())

    @staticmethod
    def constant(value, length: Ordinal):
        if length.is_zero:
            return PwcSeq.empty()
        return PwcSeq(length, (ZERO, length), (value,))

    @staticmethod
    def from_pieces(pieces):
        """Build from [(lo, hi, value), ...]; validates the tiling invariants."""
        if not pieces:
            return PwcSeq.empty()
        prev = ZERO
        for i, (lo, hi, _) in enumerate(pieces):
            if lo != prev:
                raise ParseError(
                    f"piece {i} starts at {lo}, expected {prev} (pieces must tile)")
            if not lo < hi:
                raise ParseError(f"piece {i} is empty or decreasing: [{lo},{hi})")
            prev = hi
        return PwcSeq._from_pieces(prev, pieces)

    @staticmethod
    def from_tuple(values):
        """Finite sequence from an ordinary tuple/list of values."""
        pieces = [(from_int(i), from_int(i + 1), v) for i, v in enumerate(values)]
        return PwcSeq._from_pieces(from_int(len(values)), pieces)

    @staticmethod
    def from_support(entries, length: Ordinal, zero):
        """Sequence equal to `zero` except at finitely many listed points.

        entries: iterable of (index, value) with indices strictly below length.
        """
        entries = sorted(entries, key=lambda e: e[0])
        pieces = []
        prev = ZERO
        for idx, val in entries:
            if not idx < length:
                raise IndexOutOfRangeError(f"support point {idx} >= length {length}")
            if idx < prev:
                raise ParseError("support points must be strictly increasing")
            if prev < idx:
                pieces.append((prev, idx, zero))
            nxt = idx + ONE
            pieces.append((idx, nxt, val))
            prev = nxt
        if prev < length:
            pieces.append((prev, length, zero))
        return PwcSeq._from_pieces(length, pieces)

    # -- access ---------------------------------------------------------------

    def pieces(self):
        return list(zip(self.breakpoints, self.breakpoints[1:], self.values))

    def value_at(self, g: Ordinal):
        if not g < self.length:
            raise IndexOutOfRangeError(f"index {g} >= length {self.length}")
        return self.values[bisect.bisect_right(self.breakpoints, g) - 1]

    # -- pointwise and structural operations ----------------------------------

    def map_values(self, f):
        return PwcSeq._from_pieces(
            self.length,
            [(lo, hi, f(v)) for lo, hi, v in self.pieces()])

    def zip_map(self, other: "PwcSeq", f):
        """Pointwise f over the common refinement of two equal-length sequences."""
        if self.length != other.length:
            raise LengthMismatchError(
                f"lengths differ: {self.length} vs {other.length}")
        pieces = []
        i = j = 0
        lo = ZERO
        while lo < self.length:
            hi_i = self.breakpoints[i + 1]
            hi_j = other.breakpoints[j + 1]
            hi = hi_i if hi_i < hi_j else hi_j
            pieces.append((lo, hi, f(self.values[i], other.values[j])))
            if hi == hi_i:
                i += 1
            if hi == hi_j:
                j += 1
            lo = hi
        return PwcSeq._from_pieces(self.length, pieces)

    def clip(self, lo: Ordinal, hi: Ordinal):
        """The pieces meeting [lo, hi), cut to it: [(a, b, v), ...].

        Stops at the piece that reaches hi.  The pieces tile, so the first
        piece met starts at or below lo and every later one starts above it.
        """
        out = []
        if not lo < hi:
            return out
        for slo, shi, v in self.pieces():
            if not out and not lo < shi:
                continue
            start = slo if out else lo
            if shi < hi:
                out.append((start, shi, v))
            else:
                out.append((start, hi, v))
                break
        return out

    def prefix(self, b: Ordinal) -> "PwcSeq":
        """Restriction to [0, b); requires b <= length."""
        if self.length < b:
            raise IndexOutOfRangeError(f"prefix {b} > length {self.length}")
        return PwcSeq._from_pieces(b, self.clip(ZERO, b))

    def final_segment(self, b: Ordinal) -> "PwcSeq":
        """Restriction to [b, length), reindexed to start at 0; needs b < length."""
        if not b < self.length:
            raise IndexOutOfRangeError(f"segment start {b} >= length {self.length}")
        return PwcSeq._from_pieces(
            left_subtract(b, self.length),
            [(left_subtract(b, lo), left_subtract(b, hi), v)
             for lo, hi, v in self.clip(b, self.length)])

    def concat(self, other: "PwcSeq") -> "PwcSeq":
        """Self on [0, len(self)), then other shifted to start at len(self)."""
        if self.length.is_zero:
            return other
        if other.length.is_zero:
            return self
        pieces = self.pieces()
        for lo, hi, v in other.pieces():
            pieces.append((self.length + lo, self.length + hi, v))
        return PwcSeq._from_pieces(self.length + other.length, pieces)


# -- textual form -------------------------------------------------------------
# semicolon-separated pieces  "[<ordinal>,<ordinal>) -> <value>", or "empty".
# The ordinal reader reads each interval, so ' ' may sit anywhere inside it;
# whitespace may surround a piece and its '->'.  A value runs to the next ';'.


def parse_pwc(text: str, parse_value) -> PwcSeq:
    if text.strip() in ("", "empty"):
        return PwcSeq.empty()
    p = _OrdParser(text)
    pieces = []
    while True:
        p.space()
        lo, hi = p.interval()
        p.space()
        if not text.startswith("->", p.pos):
            p.fail("interval must be followed by '->'")
        value_text, more, rest = text[p.pos + 2:].partition(";")
        value_text = value_text.strip()
        try:
            value = parse_value(value_text)
        except (ValueError, TypeError) as exc:
            raise ParseError(f"bad piece value {value_text!r}: {exc}") from exc
        pieces.append((lo, hi, value))
        if not more:
            return PwcSeq.from_pieces(pieces)
        p.pos = len(text) - len(rest)


def format_pwc(seq: PwcSeq, format_value) -> str:
    if not seq.values:
        return "empty"
    return ";".join(
        f"[{format_ordinal(lo)},{format_ordinal(hi)}) -> {format_value(v)}"
        for lo, hi, v in seq.pieces())
