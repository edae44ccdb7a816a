"""Module instances: carriers on which terms are evaluated.

Two kinds of module:

  FiniteMod(n, shape)   product of cyclic groups Z/shape[i] (each shape[i]
                        dividing n) with Z/n acting by multiplication;
                        elements are int tuples.
  FreeSymbolic(th, X)   the module of formal terms over X; operations build
                        term nodes, nothing is reduced.

and one carrier that is not a module of its own:

  Submodule(parent, S, gens)
                        the span S of gens in a FiniteMod: the stable
                        image of a limit, whose elements add in the parent.

The infinitary sum is partial everywhere: a family may be summed exactly when
its nonzero part is finite, and a divergent request raises DivergentSumError
rather than returning anything; on finite instances it adds n times the
value of each nonzero piece of n points, so it costs O(pieces).  In
FreeSymbolic the sum is total as a formal Sum node.

Each object is checked once, for what its construction leaves open; over
Z/n negation and scalars are repeated addition, so + is all there is to check.
A Homomorphism table is checked by f(0) = 0 and f(x + g) = f(x) + f(g) for
every x and generator g, and a linear extension only on its generator images.
A Submodule is built only from the span its builder holds, with the
generators it holds, so nothing is left to check.  A rejection names its
witness.

Tables that hold by construction are built without a module operation per
element: a linear extension, the identity or the zero map out of a
FiniteMod, as one integer list per codomain coordinate when the table is
first read.
"""

from __future__ import annotations

import itertools
import math

from .errors import (
    DivergentSumError,
    HomomorphismValidationError,
    InfiniteCarrierError,
    ModuleValidationError,
    ParseError,
    TheoryMismatchError,
    TranslimError,
    check_enumeration,
)
from .frozen import Frozen, set_field
from .ordinal import (Ordinal, format_ordinal, interval_cardinality,
                      parse_ordinal)
from .pwcseq import PwcSeq
from .terms import (
    AdditiveTheory,
    App,
    Sum,
    check_term,
    format_term,
    parse_term,
)


class ModuleInstance(Frozen):
    """Operation dispatch shared by every kind of instance."""

    __slots__ = ()

    def apply(self, op, args):
        ar = self.theory.arity(op)
        if ar != len(args):
            raise TheoryMismatchError(
                f"operation {op!r} expects {ar} arguments, got {len(args)}")
        if op == "+":
            return self.add(*args)
        if op == "-":
            return self.neg(*args)
        if op == "zero":
            return self.zero()
        return self.scal(op[1], *args)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def infinitary_sum(self, seq: PwcSeq):
        """Sum of a PwcSeq of elements; defined only for finite nonzero part.

        A nonzero piece of n points adds n times its value, so the cost
        follows the number of pieces, not the number of points.
        """
        zero = self.zero()
        total = zero
        for lo, hi, v in seq.pieces():
            if v == zero:
                continue
            n = interval_cardinality(lo, hi)
            if n is None:
                raise DivergentSumError(
                    "family has a nonzero value on an infinite interval")
            total = self.add(total, self.scal(n, v))
        return total


class FiniteMod(ModuleInstance):
    """Z/shape[0] x ... x Z/shape[k-1] as a module over Z/modulus."""

    __slots__ = ("modulus", "shape", "infinitary", "theory", "cyclic")
    # theory and cyclic are derived, so equality, hash and repr skip them:
    # theory is the AdditiveTheory of modulus and infinitary, and cyclic
    # the order of the one component of a rank-1 module, 0 at any other
    # rank; the operations take a one-line path on it for operands of
    # length 1, and the comprehension (which zip truncates) otherwise
    _fields = ("modulus", "shape", "infinitary")

    def __init__(self, modulus: int, shape: tuple, infinitary: bool = True):
        if modulus < 1:
            raise ModuleValidationError("modulus must be >= 1")
        for m in shape:
            if m < 1 or modulus % m != 0:
                raise ModuleValidationError(
                    f"component order {m} must divide the modulus {modulus}")
        set_field(self, "modulus", modulus)
        set_field(self, "shape", shape)
        set_field(self, "infinitary", infinitary)
        set_field(self, "theory", AdditiveTheory(modulus, infinitary))
        set_field(self, "cyclic", shape[0] if len(shape) == 1 else 0)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.modulus == other.modulus
                    and self.shape == other.shape
                    and self.infinitary == other.infinitary)
        return NotImplemented

    def __hash__(self):
        return hash((self.modulus, self.shape, self.infinitary))

    is_finite = True

    @property
    def size(self):
        return math.prod(self.shape)

    def zero(self):
        return (0,) * len(self.shape)

    # tuple() over a list builds the tuple at its final size; over a
    # generator it resizes it, and resized tuples pile up in CPython's
    # per-size tuple free lists until a full garbage collection
    def add(self, a, b):
        m = self.cyclic
        if m and len(a) == 1 and len(b) == 1:
            return ((a[0] + b[0]) % m,)
        return tuple([(x + y) % m for x, y, m in zip(a, b, self.shape)])

    def neg(self, a):
        m = self.cyclic
        if m and len(a) == 1:
            return ((-a[0]) % m,)
        return tuple([(-x) % m for x, m in zip(a, self.shape)])

    def sub(self, a, b):
        m = self.cyclic
        if m and len(a) == 1 and len(b) == 1:
            return ((a[0] - b[0]) % m,)
        return tuple([(x - y) % m for x, y, m in zip(a, b, self.shape)])

    def scal(self, r, a):
        m = self.cyclic
        if m and len(a) == 1:
            return ((r * a[0]) % m,)
        return tuple([(r * x) % m for x, m in zip(a, self.shape)])

    def _check_size(self):
        """Refuse a carrier past the enumeration limit."""
        check_enumeration(self.size, lambda: f"the carrier of {self.literal}")

    def elements(self):
        self._check_size()
        return list(itertools.product(*map(range, self.shape)))

    def contains(self, x):
        return (isinstance(x, tuple) and len(x) == len(self.shape)
                and all(type(c) is int and 0 <= c < m
                        for c, m in zip(x, self.shape)))

    def generators(self):
        """Standard basis-like generators e_i (one per cyclic component)."""
        k = len(self.shape)
        return [tuple([1 % m if j == i else 0 for j in range(k)])
                for i, m in enumerate(self.shape)]

    @property
    def literal(self):
        if not self.shape:
            return "0"
        return " x ".join(f"Z/{m}" for m in self.shape)

    def format_element(self, x):
        if len(self.shape) == 1:
            return str(x[0])
        return "(" + ",".join(str(c) for c in x) + ")"

    def parse_element(self, text):
        text = text.strip()
        if len(self.shape) == 1 and not text.startswith("("):
            parts = [text]
        else:
            if not (text.startswith("(") and text.endswith(")")):
                raise ParseError(f"element of {self.literal} must be (a,...): {text!r}")
            inner = text[1:-1].strip()
            parts = [p for p in inner.split(",")] if inner else []
        if len(parts) != len(self.shape):
            raise ParseError(
                f"element of {self.literal} needs {len(self.shape)} coordinates")
        out = []
        for p, m in zip(parts, self.shape):
            try:
                v = int(p)
            except ValueError:
                raise ParseError(f"bad coordinate {p!r}") from None
            if not 0 <= v < m:
                raise ParseError(f"coordinate {v} out of range for Z/{m}")
            out.append(v)
        return tuple(out)

    def element_to_json(self, x):
        return list(x)

    def element_from_json(self, data):
        if (not isinstance(data, list) or len(data) != len(self.shape)
                or not all(type(c) is int and 0 <= c < m
                           for c, m in zip(data, self.shape))):
            raise ParseError(f"bad element {data!r} for {self.literal}")
        return tuple(data)


class Submodule(Frozen):
    """The span of gens in a FiniteMod, as a carrier: members is its set of
    elements, which the builder closes under + from zero and gens, and a
    finite subset so closed is closed under negation and scalars too.  It
    is no module of its own: its elements add as they do in the parent."""

    # the value is the parent and the sorted carrier, so equality, hash and
    # repr skip the set and the generating set the builder passes on
    __slots__ = ("parent", "members", "gens", "carrier")
    _fields = ("parent", "carrier")

    def __init__(self, parent: FiniteMod, members: set, gens: tuple):
        set_field(self, "parent", parent)
        set_field(self, "members", members)
        set_field(self, "gens", gens)
        self.__post_init__()

    # a method of its own, run once per construction: perfbench counts
    # submodule builds through it
    def __post_init__(self):
        # the carrier: the members as a sorted tuple of parent elements
        set_field(self, "carrier", tuple(sorted(self.members)))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.parent == other.parent
                    and self.carrier == other.carrier)
        return NotImplemented

    def __hash__(self):
        return hash((self.parent, self.carrier))

    @property
    def theory(self):
        return self.parent.theory

    def zero(self):
        return self.parent.zero()

    def elements(self):
        return list(self.carrier)

    def contains(self, x):
        return x in self.members

    def generators(self):
        return self.gens

    @property
    def literal(self):
        return f"sub[{len(self.carrier)}] of {self.parent.literal}"


class FreeSymbolic(ModuleInstance):
    """The module of formal terms over `generators`-many variables."""

    __slots__ = ("theory",       # an AdditiveTheory
                 "generators")   # an Ordinal

    def __init__(self, theory: AdditiveTheory, generators: Ordinal):
        set_field(self, "theory", theory)
        set_field(self, "generators", generators)

    is_finite = False

    def zero(self):
        return App("zero", ())

    def add(self, a, b):
        return App("+", (a, b))

    def neg(self, a):
        return App("-", (a,))

    def scal(self, r, a):
        return App(("scal", r % self.theory.modulus), (a,))

    def infinitary_sum(self, seq: PwcSeq):
        if not self.theory.infinitary:
            raise TheoryMismatchError(
                "finitary theory: no infinitary sum in the free module")
        return Sum(seq.length, seq)

    def elements(self):
        raise InfiniteCarrierError(f"{self.literal} is not finite")

    def contains(self, x):
        try:
            check_term(self.theory, x, self.generators)
        except TranslimError:
            return False
        return True

    @property
    def literal(self):
        return f"free({self.theory.literal}, {format_ordinal(self.generators)})"

    def format_element(self, x):
        return format_term(x)

    def parse_element(self, text):
        return parse_term(text, self.theory, self.generators)


# -- homomorphisms -------------------------------------------------------------


class Homomorphism:
    """A structure-respecting map between finite instances, held as a table.

    The table is verified by f(0) = 0 and f(x + g) = f(x) + f(g) for every x
    and every g in domain.generators(): by induction on g-words f is
    additive, and an additive map of Z/n-modules keeps negation and scalars.
    A domain without a finite carrier raises InfiniteCarrierError.  Tables
    that hold by construction skip the check with _checked=True.

    A linear extension, and the identity and zero map out of a FiniteMod,
    keep their generator images: every check runs at construction, and the
    table is folded from the images the first time it is read.
    """

    __slots__ = ("domain", "codomain", "_table", "_images")

    def __init__(self, domain, codomain, table, _checked=False):
        if domain.theory != codomain.theory:
            raise TheoryMismatchError(
                f"domain over {domain.theory.literal}, "
                f"codomain over {codomain.theory.literal}")
        self.domain = domain
        self.codomain = codomain
        self._table = table  # None: folded from _images on first read
        if not _checked:
            self._verify()

    @property
    def table(self) -> dict:
        table = self._table
        if table is None:
            table = self._table = _linear_table(self.domain, self.codomain,
                                                self._images)
        return table

    @staticmethod
    def _linear(domain: FiniteMod, codomain, images):
        """The linear extension of e_i -> images[i], unchecked and unbuilt."""
        hom = Homomorphism(domain, codomain, None, _checked=True)
        hom._images = images
        return hom

    def _verify(self):
        dom, cod, f = self.domain, self.codomain, self.table
        elems = dom.elements()
        for x in elems:
            if x not in f:
                raise HomomorphismValidationError(f"table missing {x!r}", x)
            if not cod.contains(f[x]):
                raise HomomorphismValidationError(
                    f"value {f[x]!r} outside the codomain", x)
        if f[dom.zero()] != cod.zero():
            raise HomomorphismValidationError(
                "zero is not preserved", dom.zero())
        # a submodule adds as the module under it does
        dom_add, cod_add = _underlying(dom).add, _underlying(cod).add
        steps = [(g, f[g]) for g in dom.generators()]
        for x in elems:
            fx = f[x]
            for g, fg in steps:
                if f[dom_add(x, g)] != cod_add(fx, fg):
                    raise HomomorphismValidationError(
                        f"addition broken at {x!r} + {g!r}", (x, g))

    # -- constructors --------------------------------------------------------

    @staticmethod
    def from_function(domain, codomain, fn):
        return Homomorphism(domain, codomain,
                            table={x: fn(x) for x in domain.elements()})

    @staticmethod
    def from_generator_images(domain: FiniteMod, codomain, images):
        """Linear extension of e_i -> images[i].  It is a map exactly when
        each image, reduced into the codomain, lies there and is killed by
        the order of e_i, so only that is checked, with the size of the
        table, before anything is built."""
        if len(images) != len(domain.shape):
            raise HomomorphismValidationError(
                f"need {len(domain.shape)} generator images")
        # e_i = 0 in a Z/1 component, so its image is read as 0
        images = [codomain.scal(1 % m, g) for m, g in zip(domain.shape, images)]
        # the theories are checked before the images, the size last
        hom = Homomorphism._linear(domain, codomain, images)
        zero = codomain.zero()
        for e, m, g in zip(domain.generators(), domain.shape, images):
            if not codomain.contains(g) or codomain.scal(m, g) != zero:
                raise HomomorphismValidationError(
                    f"{e!r} -> {g!r} does not extend: the image is outside "
                    f"the codomain or not killed by {m}", e)
        check_enumeration(domain.size,
                          lambda: f"a map out of {domain.literal}")
        return hom

    @staticmethod
    def identity(module: FiniteMod):
        module._check_size()
        return Homomorphism._linear(module, module, module.generators())

    @staticmethod
    def zero_map(domain: FiniteMod, codomain):
        domain._check_size()
        return Homomorphism._linear(domain, codomain,
                                    [codomain.zero()] * len(domain.shape))

    # -- use -------------------------------------------------------------------

    def __call__(self, x):
        return self.table[x]

    def after(self, other: "Homomorphism") -> "Homomorphism":
        """self o other (apply other first)."""
        if other.codomain != self.domain:
            raise TheoryMismatchError("composition domains do not line up")
        return Homomorphism(other.domain, self.codomain,
                            table={x: self(y) for x, y in other.table.items()},
                            _checked=True)

    def __eq__(self, other):
        if not isinstance(other, Homomorphism):
            return NotImplemented
        if self.domain != other.domain or self.codomain != other.codomain:
            return False
        return self.table == other.table

    def __repr__(self):
        return f"Homomorphism({self.domain.literal} -> {self.codomain.literal})"


# -- module-level operations -----------------------------------------------------


def is_regular_epi(f: Homomorphism) -> bool:
    """Surjectivity; regular epimorphisms of modules are exactly these.
    Every value lies in the codomain, so the map is onto exactly when it
    takes as many values as the codomain has elements."""
    return len(set(f.table.values())) == f.codomain.size


def _linear_table(domain: FiniteMod, codomain, images) -> dict:
    """The table of the linear extension of e_i -> images[i], built one
    codomain coordinate at a time: coordinate j of the image of x is
    sum_i x_i * images[i][j] mod the j-th order, one list in elements()
    order per j.  A free codomain has no orders, so every value is its
    zero, which is the image of every generator that gets here."""
    orders = codomain.shape if codomain.is_finite else ()
    columns = []
    for j, n in enumerate(orders):
        col = [0]
        for m, g in zip(domain.shape, images):
            gj = g[j]
            col = [(v + c * gj) % n for v in col for c in range(m)]
        columns.append(col)
    # zip builds each value tuple at its final size (see FiniteMod.add)
    values = zip(*columns) if columns else itertools.repeat(codomain.zero())
    return dict(zip(itertools.product(*map(range, domain.shape)), values))


def _underlying(module):
    """The module a submodule sits in (module itself if none)."""
    return module.parent if isinstance(module, Submodule) else module


def zero_module(modulus: int, infinitary: bool = True) -> FiniteMod:
    return FiniteMod(modulus, (), infinitary)


def standard_battery():
    """Z/2, Z/3, Z/4, Z/2 x Z/2, Z/6: the default instances checks run over."""
    return (
        FiniteMod(2, (2,)),
        FiniteMod(3, (3,)),
        FiniteMod(4, (4,)),
        FiniteMod(2, (2, 2)),
        FiniteMod(6, (6,)),
    )


# -- instance literals -------------------------------------------------------
#   0        Z/4        Z/2 x Z/4        free(add-inf mod 2, w)


def parse_instance(text: str):
    text = text.strip()
    if text == "0":
        return zero_module(1)
    if text.startswith("free(") and text.endswith(")"):
        inner = text[5:-1]
        try:
            th_text, gen_text = inner.rsplit(",", 1)
        except ValueError:
            raise ParseError("free(...) needs a theory and a variable ordinal") from None
        theory = parse_theory(th_text.strip())
        return FreeSymbolic(theory, parse_ordinal(gen_text.strip()))
    parts = [p.strip() for p in text.split("x")]
    shape = []
    for p in parts:
        if not p.startswith("Z/"):
            raise ParseError(f"expected Z/<n>, got {p!r}")
        try:
            m = int(p[2:])
        except ValueError:
            raise ParseError(f"bad cyclic order in {p!r}") from None
        if m < 1:
            raise ParseError(f"cyclic order must be >= 1: {p!r}")
        shape.append(m)
    return FiniteMod(math.lcm(*shape), tuple(shape))


def parse_theory(text: str):
    text = text.strip()
    for prefix, flag in (("add-inf mod ", True), ("add-fin mod ", False)):
        if text.startswith(prefix):
            try:
                return AdditiveTheory(int(text[len(prefix):]), flag)
            except ValueError:
                raise ParseError(f"bad modulus in {text!r}") from None
    raise ParseError(f"unknown theory literal {text!r}")
