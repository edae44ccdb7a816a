"""Ordinal-indexed terms, transfinite limit and summation evaluators, and
inverse-system checks over finite cyclic-ring modules.

The public surface re-exports the working vocabulary; the submodules stay
importable for the long tail (sampling, suites, cli).
"""

from .errors import (DivergentSumError, FrozenFieldError,
                     HomomorphismValidationError, IndexOutOfRangeError,
                     InfiniteCarrierError, InvalidAlphaError,
                     LengthMismatchError, LevelwiseNotEpiError,
                     ModuleValidationError, OrdinalUnderflowError,
                     ParseError, PositiveVerdictError, ResourceLimitError,
                     TheoryMismatchError, TranslimError,
                     UnboundVariableError, UnknownSuiteError)
from .ordinal import (OMEGA, ONE, ZERO, Ordinal, format_ordinal, from_int,
                      left_subtract, omega_power, parse_ordinal,
                      sample_points_below)
from .pwcseq import PwcSeq, format_pwc, parse_pwc
from .terms import (INDEX, ZERO_TERM, AdditiveTheory, App, IndexVar, Lim,
                    Sum, Var, basis_family, check_term, evaluate,
                    format_term, parse_term, scal, substitute,
                    substitute_family, sum_term, var, variable_ceiling)
from .instances import (FiniteMod, FreeSymbolic, Homomorphism, Submodule,
                        is_regular_epi, parse_instance, parse_theory,
                        standard_battery, zero_module)
from .transfinite import (FinitaryLimitVerdict, LimitTermReport,
                          RefutationWitness, build_lim_term,
                          check_constants_fixed, check_prefix_independence,
                          lim_eval, lim_value, refute_limit_term_finitary,
                          restrict_sum, sum_eval_from_lim,
                          validate_refutation, verify_limit_term)
from .diagrams import (InverseSystem, LimitObject, SectionReport,
                       SurjectivityReport, SystemMorphism,
                       check_inverse_limit_surjectivity, colimit_object,
                       compose_system_morphisms, extend_by_zero_comparison,
                       extend_by_zero_system, induced_limit_map,
                       lim_to_prod_section_check, limit_object,
                       retract_product_element, system_from_json,
                       system_to_json)
from .ab5check import (AuditRow, DiagonalReport, EtaVerdict, SummationReport,
                       audit_point, diagonal_factorization, equivalence_audit,
                       eta_surjective_decision, summation_naturality_check,
                       summation_term_check, weighted_sum_term)
from .reports import CaseResult, SuiteReport
from .suites import (TEST_ORDINALS, ab5_suite, diagrams_suite, run_suite,
                     transfinite_suite)

__all__ = [n for n in dir() if not n.startswith("_")]
