"""Formal terms over a theory, including infinitary summation and limit nodes.

A term over a variable set X (an ordinal; finite sets are finite ordinals) is
one of:

  Var(g)            a variable with ordinal index g < X
  IndexVar()        positional placeholder, see below
  App(op, args)     a finitary operation of the theory
  Sum(a, family)    formal infinitary sum of an a-indexed family of terms
  Lim(a, family)    formal limit of an a-indexed family of terms

Families are PwcSeq values whose entries are terms.  A literal family
(Var(g))_{g<a} is not piecewise constant, so the placeholder IndexVar stands
for "the variable whose index equals the current position of the nearest
enclosing family".  The canonical basis family is then the constant sequence
of IndexVar, and an assignment sigma given as a PwcSeq of terms uses the same
convention, which makes the identity assignment the constant IndexVar
sequence as well.  Substitution and evaluation resolve the placeholder by
refining a family against the assignment's breakpoints, so everything stays
piecewise constant.

Terms are plain frozen data; equality is structural (families are coalesced
by PwcSeq, nothing else is normalized).  Semantics lives in `evaluate`:
Sum nodes go through the module's partial infinitary sum (error on divergent
input), Lim nodes take the telescoped final-interval value, whose agreement
with the defining difference-and-sum recursion (module `transfinite`) is
audited in the test suite.  The textual form (see below) is read by recursive
descent over the text, with every ordinal in it read in place.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import (
    IndexOutOfRangeError,
    LengthMismatchError,
    ModuleValidationError,
    TheoryMismatchError,
    UnboundVariableError,
)
from .ordinal import ONE, ZERO, Ordinal, _OrdParser, format_ordinal, from_int
from .pwcseq import PwcSeq


# -- theories -----------------------------------------------------------------


@dataclass(frozen=True)
class AdditiveTheory:
    """Z/n-linear theory: +, unary -, zero, scalars r*(-) for r in Z/n.

    With infinitary=True the theory also admits the formal Sum and Lim node
    formers; with infinitary=False those nodes are rejected at evaluation
    time (TheoryMismatch), which is what the finitary refutations exercise.
    """

    modulus: int
    infinitary: bool = True

    def __post_init__(self):
        if self.modulus < 1:
            raise ModuleValidationError("modulus must be >= 1")

    def arity(self, op) -> int:
        if op == "+":
            return 2
        if op == "-":
            return 1
        if op == "zero":
            return 0
        if isinstance(op, tuple) and len(op) == 2 and op[0] == "scal":
            return 1
        raise TheoryMismatchError(f"unknown operation {op!r}")

    @property
    def literal(self) -> str:
        kind = "add-inf" if self.infinitary else "add-fin"
        return f"{kind} mod {self.modulus}"


# -- term nodes ---------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Var:
    index: Ordinal

    def __repr__(self):
        return f"Var({format_ordinal(self.index)})"


@dataclass(frozen=True, slots=True)
class IndexVar:
    """The variable whose index is the position in the nearest enclosing family."""


@dataclass(frozen=True, slots=True)
class App:
    op: object          # str, or ("scal", r) for additive scalars
    args: tuple = ()

    def __repr__(self):
        return f"App({self.op!r}, {list(self.args)!r})"


@dataclass(frozen=True, slots=True)
class Sum:
    length: Ordinal
    family: PwcSeq

    def __post_init__(self):
        if self.family.length != self.length:
            raise LengthMismatchError(
                f"family length {self.family.length} != node length {self.length}")


@dataclass(frozen=True, slots=True)
class Lim:
    length: Ordinal
    family: PwcSeq

    def __post_init__(self):
        if self.family.length != self.length:
            raise LengthMismatchError(
                f"family length {self.family.length} != node length {self.length}")


INDEX = IndexVar()
ZERO_TERM = App("zero", ())


def var(i) -> Var:
    return Var(from_int(i) if isinstance(i, int) else i)


def scal(r: int, t) -> App:
    return App(("scal", r), (t,))


def basis_family(alpha: Ordinal) -> PwcSeq:
    """The canonical family (Var(g))_{g<alpha}, encoded positionally."""
    return PwcSeq.constant(INDEX, alpha)


def sum_term(alpha: Ordinal) -> Sum:
    """The term summing all of its alpha-many variables."""
    return Sum(alpha, basis_family(alpha))


# -- placeholder plumbing ------------------------------------------------------


def mentions_index(t) -> bool:
    """True if t uses the placeholder of the family it sits in directly.

    Placeholders inside a deeper Sum/Lim belong to that deeper family and do
    not count.
    """
    tt = type(t)
    if tt is IndexVar:
        return True
    if tt is App:
        return any(mentions_index(a) for a in t.args)
    return False


def replace_index(t, s):
    """Substitute s for the placeholder at the current family level only."""
    tt = type(t)
    if tt is IndexVar:
        return s
    if tt is App:
        return App(t.op, tuple(replace_index(a, s) for a in t.args))
    return t


# -- substitution (the monad multiplication) -----------------------------------


def substitute(term, sigma: PwcSeq):
    """Replace each variable x by sigma(x); sigma is a PwcSeq of terms.

    Positions of sigma use the placeholder convention, so the identity
    assignment is the constant IndexVar sequence and substituting it is the
    structural identity.
    """
    tt = type(term)
    if tt is Var:
        try:
            v = sigma.value_at(term.index)
        except IndexOutOfRangeError:
            raise UnboundVariableError(
                f"variable x{format_ordinal(term.index)} not covered by the "
                f"assignment (length {format_ordinal(sigma.length)})") from None
        return replace_index(v, term) if mentions_index(v) else v
    if tt is IndexVar:
        return term
    if tt is App:
        return App(term.op, tuple(substitute(a, sigma) for a in term.args))
    return tt(term.length, substitute_family(term.family, sigma))


def substitute_family(fam: PwcSeq, sigma: PwcSeq) -> PwcSeq:
    """Apply sigma to a family of terms, resolving placeholders positionally.

    This is also assignment composition: substitute_family(sigma, tau) is the
    assignment x -> substitute(sigma(x), tau).
    """
    pieces = []
    for lo, hi, t in fam.pieces():
        body = substitute(t, sigma)
        if mentions_index(t):
            if sigma.length < hi:
                raise UnboundVariableError(
                    f"family positions up to {format_ordinal(hi)} exceed the "
                    f"assignment length {format_ordinal(sigma.length)}")
            for lo2, hi2, sval in sigma.clip(lo, hi):
                pieces.append((lo2, hi2, replace_index(body, sval)))
        else:
            pieces.append((lo, hi, body))
    return PwcSeq._from_pieces(fam.length, pieces)


def variable_ceiling(t) -> Ordinal:
    """Smallest X such that t is a term over X."""
    tt = type(t)
    if tt is Var:
        return t.index + ONE
    if tt is App:
        c = ZERO
        for a in t.args:
            ac = variable_ceiling(a)
            if c < ac:
                c = ac
        return c
    if tt in (Sum, Lim):
        c = ZERO
        for lo, hi, u in t.family.pieces():
            uc = variable_ceiling(u)
            if c < uc:
                c = uc
            if mentions_index(u) and c < hi:
                c = hi
        return c
    return ZERO  # IndexVar: bounded by the family that owns it


# -- evaluation ----------------------------------------------------------------

_NO_BOUND = object()


def evaluate(term, module, assignment: PwcSeq, *, _bound=_NO_BOUND):
    """Value of term in the module under the assignment (a PwcSeq of elements).

    Var reads the assignment, App applies the module operation, Sum feeds the
    pointwise-evaluated family to the module's partial infinitary sum, and
    Lim takes the telescoped value of the evaluated family: its final
    interval's value, the zero element for length 0.  A Lim node evaluates
    every piece, in order, but builds no PwcSeq.  A final value that names
    its position (a free module's placeholder) is the variable at the last
    position of a successor length; a limit length has no last position.
    """
    tt = type(term)
    if tt is Var:
        try:
            v = assignment.value_at(term.index)
        except IndexOutOfRangeError:
            raise UnboundVariableError(
                f"variable x{format_ordinal(term.index)} not covered by the "
                f"assignment (length {format_ordinal(assignment.length)})") from None
        # a free module's assignment may name the variable at its position
        return replace_index(v, term) if mentions_index(v) else v
    if tt is IndexVar:
        if _bound is _NO_BOUND:
            raise UnboundVariableError("positional placeholder outside a family")
        return _bound
    if tt is App:
        args = [evaluate(a, module, assignment, _bound=_bound) for a in term.args]
        return module.apply(term.op, args)
    if not module.theory.infinitary:
        raise TheoryMismatchError(
            f"{'Sum' if tt is Sum else 'Lim'} node needs an infinitary "
            f"additive theory, module has {module.theory.literal}")
    if tt is Sum:
        return module.infinitary_sum(
            eval_family(term.family, module, assignment))
    pieces = _eval_pieces(term.family, module, assignment)
    value = pieces[-1][2] if pieces else module.zero()
    if mentions_index(value):
        if not term.length.is_successor:
            raise UnboundVariableError(
                f"the final value of a limit over "
                f"{format_ordinal(term.length)} names its position, but "
                f"{format_ordinal(term.length)} has no last position")
        return replace_index(value, Var(term.length.predecessor()))
    return value


def eval_family(fam: PwcSeq, module, assignment: PwcSeq) -> PwcSeq:
    """Pointwise evaluation of a family of terms to a family of elements."""
    return PwcSeq._from_pieces(fam.length,
                               _eval_pieces(fam, module, assignment))


def _eval_pieces(fam: PwcSeq, module, assignment: PwcSeq) -> list:
    """The evaluated pieces of fam, in order: a piece whose term names its
    position is split at the assignment's breakpoints."""
    pieces = []
    for lo, hi, t in fam.pieces():
        if mentions_index(t):
            if assignment.length < hi:
                raise UnboundVariableError(
                    f"family positions up to {format_ordinal(hi)} exceed the "
                    f"assignment length {format_ordinal(assignment.length)}")
            for lo2, hi2, bound in assignment.clip(lo, hi):
                pieces.append((lo2, hi2,
                               evaluate(t, module, assignment, _bound=bound)))
        else:
            pieces.append((lo, hi, evaluate(t, module, assignment)))
    return pieces


def check_term(theory, term, variable_limit: Ordinal | None = None):
    """Validate arities, Sum/Lim legality, and optionally the variable bound."""
    tt = type(term)
    if tt is Var:
        if variable_limit is not None and not term.index < variable_limit:
            raise UnboundVariableError(
                f"variable x{format_ordinal(term.index)} outside declared set "
                f"of size {format_ordinal(variable_limit)}")
        return
    if tt is IndexVar:
        return
    if tt is App:
        ar = theory.arity(term.op)
        if ar != len(term.args):
            raise TheoryMismatchError(
                f"operation {term.op!r} expects {ar} arguments, got {len(term.args)}")
        for a in term.args:
            check_term(theory, a, variable_limit)
        return
    if not theory.infinitary:
        raise TheoryMismatchError(
            "Sum/Lim nodes need an infinitary additive theory")
    for _, hi, u in term.family.pieces():
        if (variable_limit is not None and mentions_index(u)
                and variable_limit < hi):
            raise UnboundVariableError(
                f"family positions up to {format_ordinal(hi)} exceed the "
                f"declared variable set {format_ordinal(variable_limit)}")
        check_term(theory, u, variable_limit)


# -- textual form ---------------------------------------------------------------
#
#   term  := word | '(' word term* ')' | '(scal' nat term ')'
#          | '(' ('sum' | 'lim') ordinal (interval '->' term)* ')'
#   word  := 'zero' | 'idx' | 'x' ordinal | the name of a nullary operation
#
# For example (+ x0 x5), (scal 3 x1), idx, (sum w [0,2)->x0 [2,w)->zero).
# Whitespace separates items and a blank or a bracket ends a word, so the
# ordinal of a variable or a length holds a blank only inside an exponent's
# parentheses, xw^(w + 1); an interval may hold blanks, [ 0 , w ), and '->'
# follows it directly.  Error positions are offsets into the given text.

_WORD = re.compile(r"[^\s()\[]*")


class _TermParser(_OrdParser):
    # the ordinal grammar's methods are term and sum; these read terms, with
    # blanks=False: a blank ends a word outside an exponent's parentheses

    def word(self, what) -> str:
        self.space()
        start = self.pos
        self.pos = _WORD.match(self.text, start).end()
        if start == self.pos:
            self.fail(f"expected {what}")
        if self.text.startswith("^(", self.pos - 1):
            self.fail("'^(' opens an exponent only inside an ordinal",
                      self.pos - 1)
        return self.text[start:self.pos]

    def word_ordinal(self) -> Ordinal:
        ordinal = self.sum()
        if _WORD.match(self.text, self.pos).end() != self.pos:
            self.fail(f"unexpected {self.peek()!r}")
        return ordinal

    def node(self):
        ch = self.space()
        if ch == "(":
            self.pos += 1
            return self.compound()
        if ch == "x" and _WORD.match(self.text, self.pos).end() > self.pos + 1:
            self.pos += 1  # a variable: x and an ordinal make up the word
            return Var(self.word_ordinal())
        text = self.word("a term")
        if text == "zero":
            return ZERO_TERM
        if text == "idx":
            return INDEX
        # an operation of arity 0; check_term decides whether the theory has it
        return App(text, ())

    def compound(self):
        head = self.word("an operation")
        if head in ("sum", "lim"):
            self.space()
            length = self.word_ordinal()
            pieces = []
            while self.space() == "[":
                lo, hi = self.interval()
                if not self.text.startswith("->", self.pos):
                    self.fail("interval must be followed by '->'")
                self.pos += 2
                pieces.append((lo, hi, self.node()))
            self.space()
            self.expect(")")
            fam = PwcSeq.from_pieces(pieces)
            if fam.length != length:
                raise LengthMismatchError(
                    f"pieces cover {fam.length}, node declares {length}")
            return (Sum if head == "sum" else Lim)(length, fam)
        if head == "scal":
            r_text = self.word("a scalar")
            r_start = self.pos - len(r_text)
            if not r_text.isdecimal():
                self.fail(f"scalar must be a natural number: {r_text!r}",
                          r_start)
            r = self.integer(r_text, r_start)
            body = self.node()
            self.space()
            self.expect(")")
            return App(("scal", r), (body,))
        args = []
        while self.space() != ")":
            if not self.peek():
                self.fail("missing ')'")
            args.append(self.node())
        self.pos += 1
        return App(head, tuple(args))


def parse_term(text: str, theory=None, variable_limit: Ordinal | None = None):
    p = _TermParser(text, blanks=False)
    t = p.node()
    if p.space():
        p.fail("trailing input after term")
    if theory is not None:
        check_term(theory, t, variable_limit)
    return t


def format_term(t) -> str:
    tt = type(t)
    if tt is Var:
        return "x" + format_ordinal(t.index)
    if tt is IndexVar:
        return "idx"
    if tt is App:
        if isinstance(t.op, tuple):
            return f"(scal {t.op[1]} {format_term(t.args[0])})"
        if not t.args:
            return t.op
        return "(" + " ".join([t.op] + [format_term(a) for a in t.args]) + ")"
    head = "sum" if tt is Sum else "lim"
    pieces = " ".join(
        f"[{format_ordinal(lo)},{format_ordinal(hi)})->{format_term(v)}"
        for lo, hi, v in t.family.pieces())
    body = f" {pieces}" if pieces else ""
    return f"({head} {format_ordinal(t.length)}{body})"
