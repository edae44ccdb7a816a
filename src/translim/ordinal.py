"""Exact ordinal arithmetic below epsilon_0 in Cantor normal form.

An ordinal is a finite sum  w^e1*c1 + w^e2*c2 + ... + w^ek*ck  with ordinal
exponents e1 > e2 > ... > ek and positive integer coefficients; the empty sum
is 0.  An Ordinal *is* its unique CNF, the tuple ((e1, c1), ..., (ek, ck)), so
order, equality and hashing are the tuple's own (Manolios & Vroon, JAR 2005):
ZERO is falsy and equals (), and len(a) counts CNF terms.  Addition and left
subtraction are total (left subtraction requires b <= a); multiplication is
deliberately not part of the public surface: the `*n` in the textual form is
the CNF coefficient, not an operation.  The family and term parsers read
ordinals with the same reader, in place; errors carry offsets into the text.

>>> parse_ordinal("w+3") + parse_ordinal("w")
Ordinal('w*2')
>>> str(parse_ordinal("3+w"))
'w'
"""

from __future__ import annotations

import functools
import sys

from .errors import (OrdinalUnderflowError, ParseError, ResourceLimitError,
                     check_enumeration, nesting_message)


class Ordinal(tuple):
    """Cantor normal form: the tuple of (exponent, coefficient) pairs.

    Exponents are themselves Ordinal values, strictly decreasing along the
    tuple; coefficients are >= 1.  Use the module helpers (from_int,
    omega_power, parse_ordinal) rather than building tuples by hand.

    Tuple order is ordinal order: the first differing term decides by
    exponent, then by coefficient, and when one CNF extends the other the
    longer one is larger, because its extra terms are positive.
    """

    __slots__ = ()

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other) -> "Ordinal":
        if not isinstance(other, Ordinal):
            return NotImplemented
        if not other:
            return self
        if not self:
            return other
        e, c = other[0]
        # keep our terms with exponent strictly above other's leading exponent
        keep = 0
        for exp, _ in self:
            if exp > e:
                keep += 1
            else:
                break
        if keep < len(self) and self[keep][0] == e:
            c += self[keep][1]
        return Ordinal(self[:keep] + ((e, c),) + other[1:])

    def __radd__(self, other) -> "Ordinal":
        # NotImplemented here would fall back to tuple concatenation
        raise TypeError(f"cannot add an Ordinal to a {type(other).__name__}")

    def __mul__(self, other):  # not tuple repetition
        return NotImplemented

    __rmul__ = __mul__

    # -- structure ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self

    @property
    def is_successor(self) -> bool:
        return bool(self) and not self[-1][0]

    @property
    def is_finite(self) -> bool:
        return not self or (len(self) == 1 and not self[0][0])

    def to_int(self) -> int:
        if not self.is_finite:
            raise OrdinalUnderflowError(f"{self} is not a natural number")
        return self[0][1] if self else 0

    def predecessor(self) -> "Ordinal":
        if not self.is_successor:
            raise OrdinalUnderflowError(f"{self} is not a successor")
        e, c = self[-1]
        if c == 1:
            return Ordinal(self[:-1])
        return Ordinal(self[:-1] + ((e, c - 1),))

    def __str__(self) -> str:
        return format_ordinal(self)

    def __repr__(self) -> str:
        return f"Ordinal({format_ordinal(self)!r})"


ZERO = Ordinal()
ONE = Ordinal(((ZERO, 1),))
OMEGA = Ordinal(((ONE, 1),))


def from_int(n: int) -> Ordinal:
    if n < 0:
        raise OrdinalUnderflowError("ordinals are non-negative")
    return ZERO if n == 0 else Ordinal(((ZERO, n),))


def omega_power(e: Ordinal, coefficient: int = 1) -> Ordinal:
    """w^e * coefficient as a single CNF term (w^0*c is the natural c)."""
    if coefficient < 0:
        raise OrdinalUnderflowError("coefficient must be >= 0")
    if coefficient == 0:
        return ZERO
    return Ordinal(((e, coefficient),))


def compare(a: Ordinal, b: Ordinal) -> int:
    """-1, 0 or 1 as a < b, a == b, a > b."""
    return (a > b) - (a < b)


def left_subtract(b: Ordinal, a: Ordinal) -> Ordinal:
    """The unique g with b + g = a.  Raises OrdinalUnderflowError if b > a.

    >>> left_subtract(parse_ordinal("w"), parse_ordinal("w*2+1"))
    Ordinal('w+1')
    """
    j = 0
    while j < len(b) and j < len(a) and b[j] == a[j]:
        j += 1
    if j == len(b):
        return Ordinal(a[j:])
    if j == len(a):
        raise OrdinalUnderflowError(f"{b} > {a}")
    (eb, cb), (ea, ca) = b[j], a[j]
    if eb > ea:
        raise OrdinalUnderflowError(f"{b} > {a}")
    if eb < ea:
        return Ordinal(a[j:])
    if cb >= ca:
        raise OrdinalUnderflowError(f"{b} > {a}")
    return Ordinal(((ea, ca - cb),) + a[j + 1:])


def split_finite(a: Ordinal):
    """(l, n) with a = l + n, where l is zero or a limit and n a natural.

    >>> split_finite(parse_ordinal("w^2+w*3+7"))
    (Ordinal('w^2+w*3'), 7)
    """
    if a and not a[-1][0]:
        return Ordinal(a[:-1]), a[-1][1]
    return a, 0


def interval_cardinality(b: Ordinal, e: Ordinal):
    """Number of points in [b, e) if finite, else None.  Requires b <= e.

    The interval is finite exactly when b and e share their limit part;
    a larger limit part is always the larger ordinal, whatever the
    finite coefficients.
    """
    lb, nb = split_finite(b)
    le, ne = split_finite(e)
    if lb == le and nb <= ne:
        return ne - nb
    if lb < le:
        return None
    raise OrdinalUnderflowError(f"{b} > {e}")


# -- textual form -----------------------------------------------------------
#
#   ordinal  := term ('+' term)*
#   term     := 'w' ('^' exp)? ('*' nat)?  |  nat
#   exp      := 'w' ('^' exp)? | nat | '(' ordinal ')'
#   interval := '[' ordinal ',' ordinal ')'
#
# Parsing folds terms with +, so non-canonical spellings like "3+w" or "w+w"
# normalize on construction; formatting always emits the unique CNF spelling.


class _OrdParser:
    """Reads the grammar above in place, from `self.pos` in the caller's text
    to where it ends; errors carry offsets into that text.  With `blanks`,
    ' ' may sit anywhere: "1 0" is 10.  Without, only in an interval and in
    an exponent's parentheses, not between '^' and '(', as in a term word."""

    def __init__(self, text: str, blanks: bool = True):
        self.text = text
        self.pos = 0
        self.blanks = blanks
        self.depth = 0  # open exponent parentheses

    def peek(self):
        if self.blanks or self.depth:
            while self.text.startswith(" ", self.pos):
                self.pos += 1
        return self.text[self.pos:self.pos + 1]

    def space(self) -> str:  # skips all whitespace, not only ' '
        while self.text[self.pos:self.pos + 1].isspace():
            self.pos += 1
        return self.text[self.pos:self.pos + 1]

    def fail(self, message, pos=None):
        raise ParseError(message, self.pos if pos is None else pos)

    def expect(self, ch):
        if self.peek() != ch:
            self.fail(f"expected {ch!r}")
        self.pos += 1

    def nat(self) -> int:
        start = self.pos
        while self.peek().isdecimal():
            self.pos += 1
        digits = self.text[start:self.pos].replace(" ", "")
        if not digits:
            self.fail("expected a number")
        return self.integer(digits, start)

    def integer(self, digits: str, start: int) -> int:
        """int(digits) for a string of decimal digits read from start."""
        try:
            return int(digits)
        except ValueError:  # longer than sys.get_int_max_str_digits()
            self.fail(f"number has more than {sys.get_int_max_str_digits()} "
                      f"digits", start)

    def exp(self) -> Ordinal:
        start = self.pos
        ch = self.peek()
        if ch == "w":
            self.pos += 1
            if self.peek() == "^":
                self.pos += 1
                return omega_power(self.exp())
            return OMEGA
        if ch == "(":
            if not self.blanks and self.pos != start:
                self.fail("expected an exponent", start)
            self.pos += 1
            self.depth += 1
            val = self.sum()
            self.expect(")")
            self.depth -= 1
            return val
        if ch.isdecimal():
            return from_int(self.nat())
        self.fail("expected an exponent")

    def term(self) -> Ordinal:
        ch = self.peek()
        if ch == "w":
            self.pos += 1
            e = ONE
            if self.peek() == "^":
                self.pos += 1
                e = self.exp()
            c = 1
            if self.peek() == "*":
                self.pos += 1
                c = self.nat()
            return omega_power(e, c)
        if ch.isdecimal():
            return from_int(self.nat())
        self.fail("expected 'w' or a number")

    def sum(self) -> Ordinal:
        val = self.term()
        while self.peek() == "+":
            self.pos += 1
            val = val + self.term()
        return val

    def interval(self):
        """(lo, hi) of the next "[lo,hi)"; blanks may sit inside it."""
        start = self.pos
        blanks, self.blanks = self.blanks, True
        self.expect("[")
        lo = self.sum()
        self.expect(",")
        hi = self.sum()
        if not self.peek():
            self.fail("unterminated interval", start)
        self.expect(")")
        self.blanks = blanks
        return lo, hi


def parse_ordinal(text: str) -> Ordinal:
    p = _OrdParser(text)
    if not p.peek():
        p.fail("empty ordinal")
    try:
        val = p.sum()
    except RecursionError:
        raise ParseError(nesting_message()) from None
    if p.peek():
        p.fail(f"unexpected {p.peek()!r}")
    return val


def _exp_needs_parens(e: Ordinal) -> bool:
    # bare exponents re-parse correctly only for naturals and single
    # coefficient-1 terms (w, w^w, ...); anything else gets parentheses
    return not e.is_finite and (len(e) > 1 or e[0][1] != 1)


def format_ordinal(a: Ordinal) -> str:
    if not a:
        return "0"
    parts = []
    try:
        for e, c in a:
            if not e:
                parts.append(str(c))
                continue
            if e == ONE:
                s = "w"
            else:
                inner = format_ordinal(e)
                s = f"w^({inner})" if _exp_needs_parens(e) else f"w^{inner}"
            if c != 1:
                s += f"*{c}"
            parts.append(s)
    except ValueError:  # str(c) past sys.get_int_max_str_digits()
        limit = sys.get_int_max_str_digits()
        raise ResourceLimitError(
            f"a coefficient has more than {limit} digits") from None
    return "+".join(parts)


def exponents_in(a: Ordinal) -> set:
    """All exponents appearing anywhere in the CNF tree of a."""
    out = set()
    for e, _ in a:
        out.add(e)
        out |= exponents_in(e)
    return out


def sample_points_below(alpha: Ordinal) -> list:
    """A small grid of structurally interesting ordinals in [1, alpha).

    Includes 1 and 2, every partial sum of the CNF of alpha (with each
    coefficient split step by step), omega^e for each exponent occurring
    in alpha, and the successor of each of those.  For finite alpha this
    is everything in [1, alpha).  Each call returns a fresh list.
    """
    return list(_sample_grid(alpha))


# The grid is pure in alpha and drawn from on every sampled breakpoint, on
# few distinct ordinals; the bound keeps the cache from growing with input.
@functools.lru_cache(maxsize=256)
def _sample_grid(alpha: Ordinal) -> tuple:
    if alpha <= ONE:
        return ()
    # within a few: a point per unit of finite coefficient, two otherwise
    check_enumeration(sum(2 * c if e else c for e, c in alpha),
                      lambda: f"the sample grid below {format_ordinal(alpha)}")
    pts = {ONE, from_int(2)}
    acc = ZERO
    for e, c in alpha:
        for k in range(1, c + 1):
            pts.add(acc + omega_power(e, k))
        acc = acc + omega_power(e, c)
    for e in exponents_in(alpha):
        pts.add(omega_power(e))
    pts |= {p + ONE for p in pts}
    return tuple(sorted(p for p in pts if ONE <= p < alpha))
