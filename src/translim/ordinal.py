"""Exact ordinal arithmetic below epsilon_0 in Cantor normal form.

An ordinal is a finite sum  w^e1*c1 + w^e2*c2 + ... + w^ek*ck  with ordinal
exponents e1 > e2 > ... > ek and positive integer coefficients.  The empty sum
is 0.  This representation is unique, so structural equality is ordinal
equality, and ordinal order is the lexicographic order of the CNF tuples,
which the dataclass generates (Manolios & Vroon, JAR 2005).  Addition and
left subtraction are total (left subtraction requires b <= a);
multiplication is deliberately not part of the public surface: the `*n` in
the textual form is the CNF coefficient, not an operation.

>>> parse_ordinal("w+3") + parse_ordinal("w")
Ordinal('w*2')
>>> str(parse_ordinal("3+w"))
'w'
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import OrdinalUnderflowError, ParseError


@dataclass(frozen=True, slots=True, order=True)
class Ordinal:
    """Cantor normal form: tuple of (exponent, coefficient) pairs.

    Exponents are themselves Ordinal values, strictly decreasing along the
    tuple; coefficients are >= 1.  Use the module helpers (from_int, omega,
    omega_power, parse_ordinal) rather than building tuples by hand.

    Ordinal order is the order of the CNF tuple: the first differing term
    decides by exponent, then by coefficient, and when one CNF extends the
    other the longer one is larger, because its extra terms are positive.
    """

    cnf: tuple = ()

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other) -> "Ordinal":
        if isinstance(other, int):
            other = from_int(other)
        if not isinstance(other, Ordinal):
            return NotImplemented
        if not other.cnf:
            return self
        if not self.cnf:
            return other
        e = other.cnf[0][0]
        # keep our terms with exponent strictly above other's leading exponent
        keep = 0
        for exp, _ in self.cnf:
            if exp > e:
                keep += 1
            else:
                break
        merged = other.cnf
        if keep < len(self.cnf) and self.cnf[keep][0] == e:
            merged = ((e, self.cnf[keep][1] + other.cnf[0][1]),) + other.cnf[1:]
        return Ordinal(self.cnf[:keep] + merged)

    def __radd__(self, other) -> "Ordinal":
        if isinstance(other, int):
            return from_int(other) + self
        return NotImplemented

    # -- structure ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.cnf

    @property
    def is_successor(self) -> bool:
        return bool(self.cnf) and self.cnf[-1][0] == ZERO

    @property
    def is_finite(self) -> bool:
        return not self.cnf or (len(self.cnf) == 1 and self.cnf[0][0] == ZERO)

    def to_int(self) -> int:
        if not self.cnf:
            return 0
        if not self.is_finite:
            raise OrdinalUnderflowError(f"{self} is not a natural number")
        return self.cnf[0][1]

    def predecessor(self) -> "Ordinal":
        if not self.is_successor:
            raise OrdinalUnderflowError(f"{self} is not a successor")
        e, c = self.cnf[-1]
        if c == 1:
            return Ordinal(self.cnf[:-1])
        return Ordinal(self.cnf[:-1] + ((e, c - 1),))

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
    while j < len(b.cnf) and j < len(a.cnf) and b.cnf[j] == a.cnf[j]:
        j += 1
    if j == len(b.cnf):
        return Ordinal(a.cnf[j:])
    if j == len(a.cnf):
        raise OrdinalUnderflowError(f"{b} > {a}")
    (eb, cb), (ea, ca) = b.cnf[j], a.cnf[j]
    if eb > ea:
        raise OrdinalUnderflowError(f"{b} > {a}")
    if eb < ea:
        return Ordinal(a.cnf[j:])
    if cb >= ca:
        raise OrdinalUnderflowError(f"{b} > {a}")
    return Ordinal(((ea, ca - cb),) + a.cnf[j + 1:])


def split_finite(a: Ordinal):
    """(l, n) with a = l + n, where l is zero or a limit and n a natural.

    >>> split_finite(parse_ordinal("w^2+w*3+7"))
    (Ordinal('w^2+w*3'), 7)
    """
    if a.cnf and a.cnf[-1][0] == ZERO:
        return Ordinal(a.cnf[:-1]), a.cnf[-1][1]
    return a, 0


def interval_cardinality(b: Ordinal, e: Ordinal):
    """Number of points in [b, e) if finite, else None.  Requires b <= e."""
    d = left_subtract(b, e)
    return d.to_int() if d.is_finite else None


# -- textual form -----------------------------------------------------------
#
#   ordinal := term ('+' term)*
#   term    := 'w' ('^' exp)? ('*' nat)?  |  nat
#   exp     := 'w' ('^' exp)? | nat | '(' ordinal ')'
#
# Parsing folds terms with +, so non-canonical spellings like "3+w" or "w+w"
# normalize on construction; formatting always emits the unique CNF spelling.


class _OrdParser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self):
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def fail(self, message):
        raise ParseError(message, self.pos)

    def nat(self) -> int:
        start = self.pos
        while self.peek().isdigit():
            self.pos += 1
        if start == self.pos:
            self.fail("expected a number")
        return int(self.text[start:self.pos])

    def exp(self) -> Ordinal:
        ch = self.peek()
        if ch == "w":
            self.pos += 1
            if self.peek() == "^":
                self.pos += 1
                return omega_power(self.exp())
            return OMEGA
        if ch == "(":
            self.pos += 1
            val = self.sum()
            if self.peek() != ")":
                self.fail("expected ')'")
            self.pos += 1
            return val
        if ch.isdigit():
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
        if ch.isdigit():
            return from_int(self.nat())
        self.fail("expected 'w' or a number")

    def sum(self) -> Ordinal:
        val = self.term()
        while self.peek() == "+":
            self.pos += 1
            val = val + self.term()
        return val


def parse_ordinal(text: str) -> Ordinal:
    p = _OrdParser(text.replace(" ", ""))
    if not p.text:
        raise ParseError("empty ordinal", 0)
    val = p.sum()
    if p.pos != len(p.text):
        p.fail(f"unexpected {p.text[p.pos]!r}")
    return val


def _exp_needs_parens(e: Ordinal) -> bool:
    # bare exponents re-parse correctly only for naturals and single
    # coefficient-1 terms (w, w^w, ...); anything else gets parentheses
    if e.is_finite:
        return False
    return len(e.cnf) > 1 or e.cnf[0][1] != 1


def format_ordinal(a: Ordinal) -> str:
    if not a.cnf:
        return "0"
    parts = []
    for e, c in a.cnf:
        if e == ZERO:
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
    return "+".join(parts)


def exponents_in(a: Ordinal) -> set:
    """All exponents appearing anywhere in the CNF tree of a."""
    out = set()
    for e, _ in a.cnf:
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
    pts = {ONE, from_int(2)}
    acc = ZERO
    for e, c in alpha.cnf:
        for k in range(1, c + 1):
            pts.add(acc + omega_power(e, k))
        acc = acc + omega_power(e, c)
    for e in exponents_in(alpha):
        pts.add(omega_power(e))
    pts |= {p + ONE for p in pts}
    return tuple(sorted(p for p in pts if ONE <= p < alpha))
