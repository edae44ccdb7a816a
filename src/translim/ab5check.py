"""Desk-scale checks tying three properties of an additive theory together.

Over Z/n with index X the following stand or fall together, and the audit
at the bottom records that they do across both theory flavours:

  limits     a term of arity X satisfying the two limit-term laws exists;
  reach      every family over X is reachable from finitely supported data
             (equivalently, the limit retracts onto each coordinate);
  diagonal   the diagonal factors through a summation term Sum_X.

With infinitary summation all three hold and are verified constructively.
In the finitary theory over a nontrivial module all three fail for a limit
index, and each failure is certified: the refuter defeats every candidate
term, and the constant-one family escapes every finitely supported
approximation.
"""

from __future__ import annotations

import random

from .diagrams import InverseSystem, lim_to_prod_section_check
from .errors import InvalidAlphaError, TranslimError
from .frozen import Frozen
from .instances import FiniteMod, Homomorphism
from .ordinal import OMEGA, ZERO, Ordinal, format_ordinal, from_int, \
    interval_cardinality, sample_points_below
from .pwcseq import PwcSeq, format_pwc
from .sampling import random_support_family
from .terms import (
    INDEX,
    ZERO_TERM,
    AdditiveTheory,
    App,
    Sum,
    evaluate,
    format_term,
    scal,
    sum_term,
    var,
)
from .transfinite import (
    build_lim_term,
    refute_limit_term_finitary,
    sum_eval_from_lim,
    verify_limit_term,
)


class EtaVerdict(Frozen):
    """Can finitely supported families reach every family over the index?"""

    __slots__ = ("modulus", "index", "surjective", "certificate")

    def __init__(self, modulus: int, index: Ordinal, surjective: bool,
                 certificate: dict):
        self._set_fields(modulus, index, surjective, certificate)

    def to_json(self) -> dict:
        return {
            "modulus": self.modulus,
            "index": format_ordinal(self.index),
            "surjective": self.surjective,
            "certificate": self.certificate,
        }


def _finite_sum_term(k: int):
    """x_0 + x_1 + ... + x_{k-1} as an iterated binary sum."""
    term = var(0)
    for i in range(1, k):
        term = App("+", (term, var(i)))
    return term


def eta_surjective_decision(modulus: int, index: Ordinal) -> EtaVerdict:
    """Decide reachability from finite support over Z/modulus at the index.

    Finite index or trivial module: yes.  Infinite index over a nontrivial
    module: no, and the constant-one family certifies it, since its
    truncation at m already needs support of size m.
    """
    if modulus < 1:
        raise InvalidAlphaError("modulus must be >= 1")
    if modulus == 1:
        return EtaVerdict(modulus, index, True, {"kind": "trivial-module"})
    if index.is_finite:
        return EtaVerdict(modulus, index, True, {
            "kind": "finite-index",
            "support_bound": index.to_int(),
        })
    mod = FiniteMod(modulus, (modulus,))
    one, zero = (1,), mod.zero()
    growth = []
    for m in range(1, 7):
        fam = PwcSeq.constant(one, from_int(m))
        support = sum(interval_cardinality(lo, hi)
                      for lo, hi, v in fam.pieces() if v != zero)
        if support != m:
            raise TranslimError(
                f"the constant-one family of length {m} has support "
                f"of {support} points, not {m}")
        growth.append(support)
    return EtaVerdict(modulus, index, False, {
        "kind": "constant-one-escape",
        "target": format_pwc(PwcSeq.constant(one, index), mod.format_element),
        "truncation_support": growth,
    })


class DiagonalReport(Frozen):
    """A summation term through which the diagonal factors, if any."""

    __slots__ = ("index", "theory", "exists", "term", "checks", "witness",
                 "refutation")

    def __init__(self, index: Ordinal, theory: str, exists: bool, term,
                 checks: int, witness: dict | None,
                 refutation: dict | None = None):
        self._set_fields(index, theory, exists, term, checks, witness,
                         refutation)

    @property
    def verified(self) -> bool:
        return self.exists and self.witness is None

    def to_json(self) -> dict:
        return {
            "index": format_ordinal(self.index),
            "theory": self.theory,
            "exists": self.exists,
            "term": format_term(self.term) if self.term is not None else None,
            "checks": self.checks,
            "witness": self.witness,
            "refutation": self.refutation,
            "verified": self.verified,
        }


def diagonal_factorization(theory: AdditiveTheory,
                           index: Ordinal) -> DiagonalReport:
    """Produce and verify the factorizing term, or report that none exists.

    Verification evaluates the term on every one-point family m-at-x, for x
    0 or one of the first six grid points, and demands m back, over Z/n.
    Without infinitary summation the question is decided by the finite
    support argument, whose certificate is attached.
    """
    if index.is_zero:
        raise InvalidAlphaError("the diagonal needs an index of size >= 1")
    if theory.infinitary:
        term = sum_term(index)
    elif index.is_finite:
        # finite sums are already finitary terms
        term = _finite_sum_term(index.to_int())
    elif theory.modulus == 1:
        term = ZERO_TERM
    else:
        verdict = eta_surjective_decision(theory.modulus, index)
        return DiagonalReport(index, theory.literal, False, None, 0, None,
                              verdict.certificate)
    module = FiniteMod(theory.modulus, (theory.modulus,), theory.infinitary)
    checks = 0
    witness = None
    points = [ZERO] + sample_points_below(index)[:6]
    for x in points:
        for m in module.elements():
            fam = PwcSeq.from_support([(x, m)], index, module.zero())
            got = evaluate(term, module, fam)
            checks += 1
            if got != m and witness is None:
                witness = {
                    "instance": module.literal,
                    "at": format_ordinal(x),
                    "value": module.format_element(m),
                    "got": module.format_element(got),
                }
    return DiagonalReport(index, theory.literal, True, term, checks, witness)


class SummationReport(Frozen):
    __slots__ = ("instance", "index", "trials", "passed", "witness")

    def __init__(self, instance: str, index: Ordinal, trials: int,
                 passed: bool, witness: dict | None):
        self._set_fields(instance, index, trials, passed, witness)

    def to_json(self) -> dict:
        return {
            "instance": self.instance,
            "index": format_ordinal(self.index),
            "trials": self.trials,
            "passed": self.passed,
            "witness": self.witness,
        }


def summation_term_check(module, index: Ordinal, *, trials: int = 50,
                         seed: int = 0) -> SummationReport:
    """Random finite-support families: three summation routes must agree.

    The Sum term under evaluation, the finite-support sum of the instance,
    and the sum computed through the limit recursion are compared pairwise.
    """
    rng = random.Random(seed)
    term = sum_term(index)
    for trial in range(trials):
        fam = random_support_family(rng, module, index)
        via_term = evaluate(term, module, fam)
        direct = module.infinitary_sum(fam)
        via_lim = sum_eval_from_lim(module, fam)
        if not (via_term == direct == via_lim):
            return SummationReport(module.literal, index, trial + 1, False, {
                "family": format_pwc(fam, module.format_element),
                "via_term": module.format_element(via_term),
                "direct": module.format_element(direct),
                "via_limit": module.format_element(via_lim),
            })
    return SummationReport(module.literal, index, trials, True, None)


def summation_naturality_check(hom, index: Ordinal, *, trials: int = 30,
                               seed: int = 0) -> SummationReport:
    """Summation must commute with every homomorphism of instances."""
    rng = random.Random(seed)
    term = sum_term(index)
    label = f"{hom.domain.literal} -> {hom.codomain.literal}"
    for trial in range(trials):
        fam = random_support_family(rng, hom.domain, index)
        lhs = hom(evaluate(term, hom.domain, fam))
        rhs = evaluate(term, hom.codomain, fam.map_values(hom))
        if lhs != rhs:
            return SummationReport(label, index, trial + 1, False, {
                "family": format_pwc(fam, hom.domain.format_element),
                "mapped_then_summed": hom.codomain.format_element(rhs),
                "summed_then_mapped": hom.codomain.format_element(lhs),
            })
    return SummationReport(label, index, trials, True, None)


def weighted_sum_term(weights: PwcSeq) -> Sum:
    """The term sum over g of weights[g] * x_g, as a single Sum node.

    Every map that adding summation to the theory forces to exist is of
    this shape, which is why factorizations through sums are natural.
    """
    return Sum(weights.length, weights.map_values(lambda w: scal(w, INDEX)))


# -- the audit -------------------------------------------------------------------


class AuditRow(Frozen):
    __slots__ = ("theory", "modulus", "infinitary", "cond_limits",
                 "cond_reach", "cond_diagonal")

    def __init__(self, theory: str, modulus: int, infinitary: bool,
                 cond_limits: bool, cond_reach: bool, cond_diagonal: bool):
        self._set_fields(theory, modulus, infinitary, cond_limits,
                         cond_reach, cond_diagonal)

    @property
    def agree(self) -> bool:
        return self.cond_limits == self.cond_reach == self.cond_diagonal

    def to_json(self) -> dict:
        return {
            "theory": self.theory,
            "modulus": self.modulus,
            "infinitary": self.infinitary,
            "cond_limits": self.cond_limits,
            "cond_reach": self.cond_reach,
            "cond_diagonal": self.cond_diagonal,
            "agree": self.agree,
        }


def audit_point(theory: AdditiveTheory, index: Ordinal, *, trials: int,
                seed: int, section_trials: int):
    """The three conditions at one theory and index, decided independently.

    Returns the AuditRow and a dict holding, per condition, the report it
    was decided from (each has to_json).  No answer is copied into another:
    limits are verified or refuted on terms, reachability through the
    section check or the finite-support decision, and the diagonal through
    its own term.  A finitary witness term is verified before it counts.
    Under infinitary summation the reachability evidence runs on a concrete
    system, so the index must be finite or w there.
    """
    n = theory.modulus
    if theory.infinitary:
        # limits: the canonical limit term obeys both laws; reach: the
        # summation section retracts the product onto the limit threads
        mod = FiniteMod(n, (n,))
        limits = verify_limit_term(build_lim_term(index), index, mod,
                                   trials=trials, seed=seed)
        cond_limits = limits.passed
        if index == OMEGA:
            system = InverseSystem(OMEGA, (mod,), (), "constant")
        elif index.is_finite:
            k = index.to_int()
            system = InverseSystem(
                index, (mod,) * k,
                tuple(Homomorphism.identity(mod) for _ in range(k - 1)), None)
        else:
            raise InvalidAlphaError(
                f"no concrete system of index {format_ordinal(index)}: the "
                "reachability evidence needs a finite index or w")
        reach = lim_to_prod_section_check(system, trials=section_trials,
                                          seed=seed)
        cond_reach = reach.passed
        diagonal = diagonal_factorization(theory, index)
    else:
        # limits: does any finitary term satisfy the laws; reach: do finite
        # sums of generators fill the whole product
        limits = refute_limit_term_finitary(n, index)
        cond_limits = limits.exists and verify_limit_term(
            limits.witness_term, index, FiniteMod(n, (n,), False),
            trials=trials, seed=seed).passed
        reach = eta_surjective_decision(n, index)
        cond_reach = reach.surjective
        diagonal = diagonal_factorization(theory, index)
    row = AuditRow(theory.literal, n, theory.infinitary, cond_limits,
                   cond_reach, diagonal.verified)
    return row, {"limits": limits, "reach": reach, "diagonal": diagonal}


def equivalence_audit(*, seed: int = 0, trials: int = 30) -> list:
    """One row per theory: audit_point at w for Z/1 .. Z/6."""
    rows = []
    for infinitary in (False, True):
        for n in range(1, 7):
            row, _ = audit_point(AdditiveTheory(n, infinitary), OMEGA,
                                 trials=trials, seed=seed, section_trials=5)
            rows.append(row)
    return rows
