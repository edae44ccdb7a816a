"""Ordinal-indexed terms, transfinite limit and summation evaluators, and
inverse-system checks over finite cyclic-ring modules.

The public surface re-exports the working vocabulary; the submodules stay
importable for the long tail (sampling, suites, cli).  Nothing is imported
with the package: the first use of an exported name imports the submodule
that defines it (PEP 562), so `from translim import FiniteMod` loads the
module layers and leaves the evaluators, diagrams and suites unread.
"""

import importlib

# submodule -> the names the package exports from it
_EXPORTS = {
    "errors": ("DivergentSumError", "FrozenFieldError",
               "HomomorphismValidationError", "IndexOutOfRangeError",
               "InfiniteCarrierError", "InvalidAlphaError",
               "LengthMismatchError", "LevelwiseNotEpiError",
               "ModuleValidationError", "OrdinalUnderflowError", "ParseError",
               "PositiveVerdictError", "ResourceLimitError",
               "TheoryMismatchError", "TranslimError", "UnboundVariableError",
               "UnknownSuiteError"),
    "frozen": (),
    "ordinal": ("OMEGA", "ONE", "ZERO", "Ordinal", "format_ordinal",
                "from_int", "left_subtract", "omega_power", "parse_ordinal",
                "sample_points_below"),
    "pwcseq": ("PwcSeq", "format_pwc", "parse_pwc"),
    "terms": ("INDEX", "ZERO_TERM", "AdditiveTheory", "App", "IndexVar", "Lim",
              "Sum", "Var", "basis_family", "check_term", "evaluate",
              "format_term", "parse_term", "scal", "substitute",
              "substitute_family", "sum_term", "var", "variable_ceiling"),
    "instances": ("FiniteMod", "FreeSymbolic", "Homomorphism", "Submodule",
                  "is_regular_epi", "parse_instance", "parse_theory",
                  "standard_battery", "zero_module"),
    "sampling": (),
    "transfinite": ("FinitaryLimitVerdict", "LimitTermReport",
                    "RefutationWitness", "build_lim_term",
                    "check_constants_fixed", "check_prefix_independence",
                    "lim_eval", "lim_value", "refute_limit_term_finitary",
                    "restrict_sum", "sum_eval_from_lim", "validate_refutation",
                    "verify_limit_term"),
    "diagrams": ("InverseSystem", "LimitObject", "SectionReport",
                 "SurjectivityReport", "SystemMorphism",
                 "check_inverse_limit_surjectivity", "colimit_object",
                 "compose_system_morphisms", "extend_by_zero_comparison",
                 "extend_by_zero_system", "induced_limit_map",
                 "lim_to_prod_section_check", "limit_object",
                 "retract_product_levels", "system_from_json",
                 "system_to_json"),
    "ab5check": ("AuditRow", "DiagonalReport", "EtaVerdict",
                 "SummationReport", "audit_point", "diagonal_factorization",
                 "equivalence_audit", "eta_surjective_decision",
                 "summation_naturality_check", "summation_term_check",
                 "weighted_sum_term"),
    "reports": ("CaseResult", "SuiteReport"),
    "suites": ("TEST_ORDINALS", "ab5_suite", "diagrams_suite", "run_suite",
               "transfinite_suite"),
}

# exported name -> the submodule that defines it
_SOURCE = {name: module for module, names in _EXPORTS.items()
           for name in names}

__all__ = sorted([*_EXPORTS, *_SOURCE])


def __getattr__(name):
    if name in _EXPORTS:
        # importing a submodule binds it in this namespace
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_SOURCE[name]}"),
                    name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
