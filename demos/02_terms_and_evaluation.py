"""The term language: ordinal-arity syntax trees and their evaluation.

Terms are built from variables x<ordinal>, the additive operations of a
theory "add-inf mod n" / "add-fin mod n", and two ordinal-length binders:
(sum a FAMILY) and (lim a FAMILY).  A FAMILY is a piecewise-constant map
from [0,a) to sub-terms, written [lo,hi)->body; the reserved leaf idx
refers to the running position inside a binder.

Run: python3 demos/02_terms_and_evaluation.py
"""

from translim import (AdditiveTheory, FiniteMod, PwcSeq, check_term,
                      evaluate, format_term, parse_pwc, parse_term,
                      parse_ordinal, substitute, sum_term, var)

theory = AdditiveTheory(4, infinitary=True)
omega = parse_ordinal("w")

t = parse_term("(+ x0 (scal 2 x1))", theory)
print("term:", format_term(t))
check_term(theory, t, parse_ordinal("2"))
print("arity check against x<2: ok")

# evaluation needs an instance and an assignment family for the variables
Z4 = FiniteMod(4, (4,))
asg = parse_pwc("[0,2)->1; [2,w)->3", Z4.parse_element)
print("evaluate over Z/4 at (1,1,3,3,...):",
      Z4.format_element(evaluate(t, Z4, asg)))

# over a product of cyclic groups each coordinate is reduced by its own order
Z2xZ4 = FiniteMod(4, (2, 4))
pairs = parse_pwc("[0,1)->(1,1); [1,w)->(0,3)", Z2xZ4.parse_element)
print("evaluate (+ (- x0) x1) over Z/2 x Z/4 at ((1,1),(0,3),...):",
      Z2xZ4.format_element(evaluate(parse_term("(+ (- x0) x1)", theory),
                                    Z2xZ4, pairs)))

# the canonical summation term of length w, and a finite-support family
sigma = sum_term(omega)
print("summation term:", format_term(sigma))
fam = parse_pwc("[0,3)->1; [3,w)->0", Z4.parse_element)
print("sum of 1+1+1 then zeros:", Z4.format_element(evaluate(sigma, Z4, fam)))

# substitution: position g of the family is the replacement for x<g>
sigma = PwcSeq.from_tuple((parse_term("(scal 2 x1)", theory), var(1)))
sub = substitute(t, sigma)
print("after x0 -> 2*x1:", format_term(sub))
print("which evaluates to:", Z4.format_element(evaluate(sub, Z4, asg)))
