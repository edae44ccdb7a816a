"""Limits and sums of ordinal-indexed families, and limit-term checking.

The limit of a family (m_g)_{g<b} is defined by the difference-and-sum
recursion

    lim_{g<b} m  =  sum_{g<b} ( m_g - lim_{d<g} m_d )

which is well founded because every prefix is strictly shorter.  For a
piecewise-constant family the inner limits are constant on each piece, so
the difference family vanishes except at the finitely many piece starts
and the outer sum is finite.  lim_eval computes exactly this in one pass
over the pieces: the inner limit at a piece start lo is the recursion's
value on the prefix [0, lo), which is the finite sum of the differences
met so far, so it is carried along instead of recomputed.  On finite
instances the running value after the last piece is the answer: it is the
finite sum of the differences, added in the order that the infinitary sum
would add them, so no difference family is built or summed again.  Over a
free module the answer stays a formal Sum node.  lim_value is the
telescoped final-interval value that the recursion provably collapses to;
the suite case "limit recursion telescopes" and the test suite
cross-check the two.

Sums over a limit-length index are in turn limits of partial sums, which
is what sum_eval_from_lim implements; it exists so that summation can be
validated against the independent finite-support sum of the instances,
which adds n times the value of each nonzero piece of n points and so
costs O(pieces).  sum_eval_from_lim walks the pieces once.  A successor
length is peeled one piece at a time from the end, each piece sized from
the limit parts of its bounds: n equal points add up to n times their
value, so the peel costs a step per piece, not per unit of a finite
coefficient, and on a finite instance a zero piece costs no module
operation.  The pieces left below the limit part go straight into the
partial-sum family.  It steps once per point of a nonzero piece, one
addition at a time, which keeps it independent of the instances' sum;
its point count is held to the enumeration limit.
"""

from __future__ import annotations

import random
import sys

from . import sampling
from .errors import (
    DivergentSumError,
    InvalidAlphaError,
    LengthMismatchError,
    PositiveVerdictError,
    ResourceLimitError,
    TranslimError,
    check_enumeration,
)
from .instances import FiniteMod
from .frozen import Frozen
from .ordinal import (
    ONE,
    ZERO,
    Ordinal,
    format_ordinal,
    from_int,
    interval_cardinality,
    left_subtract,
    split_finite,
)
from .pwcseq import PwcSeq, format_pwc
from .terms import (
    AdditiveTheory,
    App,
    Lim,
    Var,
    basis_family,
    check_term,
    evaluate,
    format_term,
    mentions_index,
    variable_ceiling,
)


def lim_eval(module, fam: PwcSeq):
    """The limit of fam by the difference-and-sum recursion, in one pass.

    At each piece start lo the running value is lim_eval(fam.prefix(lo)):
    by induction on the pieces it is the sum of the differences collected
    before lo.  On finite instances it is added up as the pass goes, so
    after the last piece it is the answer: the finite sum of all the
    differences, in the order the infinitary sum would add them.  Each
    piece interior is spot-checked to contribute a zero difference (the
    running value after the piece start is the piece's value), which is
    the fact that makes the support finite; a failure raises TranslimError
    naming the piece.  Over a free module the running value is the formal
    sum of those differences.
    """
    if fam.length.is_zero:
        return module.zero()
    if not module.is_finite:
        return _formal_lim(module, fam)
    zero = module.zero()
    running = zero
    for lo, hi, v in fam.pieces():
        d = module.sub(v, running)
        if d != zero:
            running = module.add(running, d)
        if running != v and lo + ONE < hi:
            _raise_interior(module, lo, hi, v, running)
    return running


def _formal_lim(module, fam: PwcSeq):
    """lim_eval over a free module: the formal sum of the differences.

    A value that names its position (the placeholder) differs from point
    to point, so on a piece of more than one point it leaves a nonzero
    difference past the piece start, which raises as in lim_eval.
    """
    zero = module.zero()
    support = []
    running = zero
    for lo, hi, v in fam.pieces():
        if not lo.is_zero:
            running = module.infinitary_sum(
                PwcSeq.from_support(support, lo, zero))
        d = module.sub(v, running)
        if d != zero:
            support.append((lo, d))
        if mentions_index(v) and lo + ONE < hi:
            _raise_interior(module, lo, hi, v, module.infinitary_sum(
                PwcSeq.from_support(support, lo + ONE, zero)))
    return module.infinitary_sum(
        PwcSeq.from_support(support, fam.length, zero))


def _raise_interior(module, lo, hi, v, running):
    """Refuse the piece [lo, hi) -> v, whose running limit past its start
    is not v."""
    fmt = module.format_element
    raise TranslimError(
        f"limit recursion: piece [{format_ordinal(lo)},"
        f"{format_ordinal(hi)}) -> {fmt(v)} has a nonzero "
        f"difference past its start (running limit {fmt(running)})")


def lim_value(module, fam: PwcSeq):
    """Telescoped form of lim_eval: the value on the final interval."""
    if fam.length.is_zero:
        return module.zero()
    return fam.values[-1]


def sum_eval_from_lim(module, fam: PwcSeq):
    """Sum of fam computed through the limit recursion.

    A successor length peels the last piece whole, reading its size off
    the limit parts of its start lo and of the length b: if they are
    equal the piece is finite, its n points contribute n times its value
    and the length drops to lo; otherwise the piece covers b's finite
    coefficient c, which contributes c times the value, and the length
    drops to its limit part, where the rest of the piece stays.  On a
    finite instance a zero piece only moves the length.  The remaining
    limit length takes the limit of the partial-sum family of the pieces
    left, which is piecewise constant exactly when their nonzero part is
    finite (DivergentSumError otherwise).
    """
    tail = None
    nested = 0  # copies of a value in tail
    lim_b, n_b = split_finite(fam.length)
    pieces = fam.pieces()
    skip_zero = module.is_finite
    zero = module.zero()
    while n_b:
        lo, _, v = pieces.pop()
        lim_lo, n_lo = split_finite(lo)
        if lim_lo == lim_b:
            n, n_b = n_b - n_lo, n_lo
        else:
            n, n_b = n_b, 0
            pieces.append((lo, lim_b, v))
        if skip_zero and v == zero:
            continue
        tail = _add_copies(module, n, v, tail, nested)
        nested += n
    core = (zero if lim_b.is_zero
            else _lim_of_partial_sums(module, pieces, lim_b))
    if tail is None:
        return core
    return module.add(core, tail)


def _add_copies(module, n, v, tail, nested):
    """n copies of v added in front of tail (None: nothing peeled yet),
    which holds `nested` copies.

    On finite instances the n copies are module.scal(n, v).  A free module
    does not reduce terms, so there the copies stay the nested sum
    v + (v + (... + tail)) that peeling point by point spells; a nesting
    deeper than the recursion limit is refused before it is built, since
    no term that deep can be formatted or compared.
    """
    if module.is_finite:
        part = module.scal(n, v)
        return part if tail is None else module.add(part, tail)
    if nested + n > sys.getrecursionlimit():
        raise ResourceLimitError(
            f"a sum of {nested + n} points over a free module nests deeper "
            f"than the recursion limit ({sys.getrecursionlimit()})")
    for _ in range(n):
        tail = v if tail is None else module.add(v, tail)
    return tail


def _lim_of_partial_sums(module, pieces, b: Ordinal):
    """lim_eval of the partial sums of the pieces, which tile [0, b).

    The partial sum steps at each point of a nonzero piece, one
    module.add per point, so the family gets one piece per point.  A
    nonzero piece of infinitely many points raises DivergentSumError;
    otherwise the total point count is held to the enumeration limit
    before any point is listed.
    """
    zero = module.zero()
    runs = []
    count = 0
    for lo, hi, v in pieces:
        if v == zero:
            continue
        n = interval_cardinality(lo, hi)
        if n is None:
            raise DivergentSumError(
                f"family over {format_ordinal(b)} has infinite nonzero part")
        runs.append((lo, n, v))
        count += n
    check_enumeration(
        count, lambda: f"the partial sums over {format_ordinal(b)}")
    sums = []
    acc = zero
    prev = ZERO
    for lo, n, v in runs:
        lim_lo, n_lo = split_finite(lo)
        for k in range(n_lo + 1, n_lo + n + 1):
            nxt = lim_lo + from_int(k)
            sums.append((prev, nxt, acc))
            acc = module.add(acc, v)
            prev = nxt
    sums.append((prev, b, acc))
    return lim_eval(module, PwcSeq._from_pieces(b, sums))


def restrict_sum(module, fam: PwcSeq, alpha: Ordinal):
    """Sum of fam viewed inside index alpha: zero-extend, then sum over alpha."""
    if alpha < fam.length:
        raise LengthMismatchError(
            f"cannot restrict a sum over {format_ordinal(fam.length)} "
            f"to the shorter index {format_ordinal(alpha)}")
    if fam.length < alpha:
        pad = PwcSeq.constant(module.zero(),
                              left_subtract(fam.length, alpha))
        fam = fam.concat(pad)
    return sum_eval_from_lim(module, fam)


# -- limit terms ---------------------------------------------------------------


def build_lim_term(alpha: Ordinal) -> Lim:
    """The canonical limit term of arity alpha: lim over the variable family."""
    if alpha.is_zero:
        raise InvalidAlphaError("a limit term needs arity at least 1")
    return Lim(alpha, basis_family(alpha))


def check_constants_fixed(term, alpha: Ordinal, module):
    """Witness dict if some constant family is moved, else None.

    On a FiniteMod only the generators are evaluated, last first.  The map
    c -> t(const c) is additive on its domain, which is a subgroup, so the
    constants it fixes form a subgroup H.  elements() runs in
    lexicographic order, so its first element outside H is a generator
    e_i, and every later generator lies in H: e_i is the last generator
    outside H.  That gives the same witness, or the same
    DivergentSumError, as the loop over every element, which other
    modules still run.
    """
    constants = (reversed(module.generators())
                 if isinstance(module, FiniteMod) else module.elements())
    for c in constants:
        got = evaluate(term, module, PwcSeq.constant(c, alpha))
        if got != c:
            return {
                "law": "constants-fixed",
                "constant": module.format_element(c),
                "got": module.format_element(got),
            }
    return None


def check_prefix_independence(term, module, asg_a: PwcSeq, asg_b: PwcSeq,
                              beta: Ordinal):
    """Witness dict if two assignments agreeing on [beta, alpha) separate."""
    va = evaluate(term, module, asg_a)
    vb = evaluate(term, module, asg_b)
    if va != vb:
        return {
            "law": "prefix-independence",
            "beta": format_ordinal(beta),
            "family_a": format_pwc(asg_a, module.format_element),
            "family_b": format_pwc(asg_b, module.format_element),
            "value_a": module.format_element(va),
            "value_b": module.format_element(vb),
        }
    return None


class LimitTermReport(Frozen):
    __slots__ = ("term", "alpha", "instance", "constants_fixed",
                 "prefix_independence", "trials", "witness")

    def __init__(self, term, alpha: Ordinal, instance: str,
                 constants_fixed: bool, prefix_independence: bool,
                 trials: int, witness: dict | None):
        self._set_fields(term, alpha, instance, constants_fixed,
                         prefix_independence, trials, witness)

    @property
    def passed(self) -> bool:
        return self.constants_fixed and self.prefix_independence

    def to_json(self) -> dict:
        return {
            "term": format_term(self.term),
            "alpha": format_ordinal(self.alpha),
            "instance": self.instance,
            "constants_fixed": self.constants_fixed,
            "prefix_independence": self.prefix_independence,
            "trials": self.trials,
            "witness": self.witness,
            "passed": self.passed,
        }


def verify_limit_term(term, alpha: Ordinal, module, *, trials: int = 200,
                      seed: int = 0) -> LimitTermReport:
    """Check the two limit-term laws on one instance.

    Constants are checked on the generators of a finite module and on
    every element otherwise (a constant family is determined by its
    value; see check_constants_fixed).  Prefix independence runs `trials`
    seeded random pairs of assignments that agree on a random final
    segment.
    """
    if alpha.is_zero:
        raise InvalidAlphaError("a limit term needs arity at least 1")
    check_term(module.theory, term, alpha)
    rng = random.Random(seed)
    witness = check_constants_fixed(term, alpha, module)
    constants_ok = witness is None
    prefix_ok = True
    done = 0
    for _ in range(trials):
        a, b, beta = sampling.random_tail_agreeing_pair(rng, module, alpha)
        done += 1
        w = check_prefix_independence(term, module, a, b, beta)
        if w is not None:
            prefix_ok = False
            if witness is None:
                witness = w
            break
    return LimitTermReport(term, alpha, module.literal, constants_ok,
                           prefix_ok, done, witness)


# -- existence of finitary limit terms ------------------------------------------


class RefutationWitness(Frozen):
    """A concrete violation of one of the limit-term laws by a candidate."""

    __slots__ = ("kind",  # "constants" or "prefix"
                 "module", "assignment_a", "assignment_b", "beta",
                 "value_a", "value_b", "expected")

    def __init__(self, kind: str, module: FiniteMod, assignment_a: PwcSeq,
                 assignment_b: PwcSeq | None, beta: Ordinal | None, value_a,
                 value_b, expected):
        self._set_fields(kind, module, assignment_a, assignment_b, beta,
                         value_a, value_b, expected)

    def to_json(self) -> dict:
        fmt = self.module.format_element
        out = {
            "kind": self.kind,
            "instance": self.module.literal,
            "assignment_a": format_pwc(self.assignment_a, fmt),
            "value_a": fmt(self.value_a),
        }
        if self.kind == "constants":
            out["expected"] = fmt(self.expected)
        else:
            out["assignment_b"] = format_pwc(self.assignment_b, fmt)
            out["value_b"] = fmt(self.value_b)
            out["agree_from"] = format_ordinal(self.beta)
        return out


class FinitaryLimitVerdict(Frozen):
    """Whether any finitary term of arity alpha satisfies the limit laws.

    For successor alpha the last-coordinate projection works, and over the
    one-element module anything works.  For limit alpha over Z/n with n > 1
    no finitary term can work, and challenge() defeats any candidate: a term
    whose coefficients do not sum to 1 moves the constant family at 1, and
    one whose coefficients do sum to 1 separates two assignments that agree
    beyond every variable the term mentions.
    """

    __slots__ = ("modulus", "alpha", "exists", "witness_term")

    def __init__(self, modulus: int, alpha: Ordinal, exists: bool,
                 witness_term=None):
        self._set_fields(modulus, alpha, exists, witness_term)

    def challenge(self, term) -> RefutationWitness:
        if self.exists:
            raise PositiveVerdictError(
                "verdict is positive; there is nothing to refute")
        theory = AdditiveTheory(self.modulus, infinitary=False)
        check_term(theory, term, self.alpha)
        module = FiniteMod(self.modulus, (self.modulus,), infinitary=False)
        one = (1 % self.modulus,)
        const_one = PwcSeq.constant(one, self.alpha)
        v_one = evaluate(term, module, const_one)
        if v_one != one:
            return RefutationWitness("constants", module, const_one, None,
                                     None, v_one, None, one)
        # coefficients sum to 1, so the term mentions a variable and its
        # ceiling beta is still below the limit ordinal alpha
        beta = variable_ceiling(term)
        flat = PwcSeq.from_pieces([(ZERO, beta, module.zero())]).concat(
            PwcSeq.constant(one, left_subtract(beta, self.alpha)))
        v_flat = evaluate(term, module, flat)
        return RefutationWitness("prefix", module, const_one, flat, beta,
                                 v_one, v_flat, None)

    def to_json(self) -> dict:
        out = {
            "modulus": self.modulus,
            "alpha": format_ordinal(self.alpha),
            "exists": self.exists,
        }
        if self.witness_term is not None:
            out["witness_term"] = format_term(self.witness_term)
        return out


def refute_limit_term_finitary(modulus: int,
                               alpha: Ordinal) -> FinitaryLimitVerdict:
    """Decide finitary limit-term existence over Z/modulus at arity alpha."""
    if alpha.is_zero:
        raise InvalidAlphaError("a limit term needs arity at least 1")
    if modulus == 1:
        return FinitaryLimitVerdict(modulus, alpha, True, App("zero", ()))
    if alpha.is_successor:
        return FinitaryLimitVerdict(modulus, alpha, True,
                                    Var(alpha.predecessor()))
    return FinitaryLimitVerdict(modulus, alpha, False)


def validate_refutation(witness: RefutationWitness, term):
    """Re-check a refutation certificate through the ordinary evaluator.

    Returns (ok, details); details are None on success and name the first
    re-evaluated value that disagrees otherwise.
    """
    module = witness.module
    va = evaluate(term, module, witness.assignment_a)
    if witness.kind == "constants":
        if va == witness.value_a and va != witness.expected:
            return True, None
        return False, {"kind": witness.kind,
                       "reevaluated": module.format_element(va)}
    vb = evaluate(term, module, witness.assignment_b)
    tails_agree = (witness.assignment_a.final_segment(witness.beta)
                   == witness.assignment_b.final_segment(witness.beta))
    if (va == witness.value_a and vb == witness.value_b
            and va != vb and tails_agree):
        return True, None
    return False, {"kind": witness.kind,
                   "reevaluated_a": module.format_element(va),
                   "reevaluated_b": module.format_element(vb),
                   "tails_agree": tails_agree}
