"""The value types are immutable slotted classes, compared and hashed by
their fields, and the package loads without `dataclasses`, importing each
submodule only when something first uses it.

Each value type refuses assignment with a FrozenFieldError, which is both
a TranslimError and an AttributeError.  Its hash is the hash of the tuple
of the fields that count, in declaration order, which keeps set and dict
orders, and every output built from them, as they were.  Equality holds
only between instances of the same class.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_acceptance import GOLDEN_RUNS

import translim
from translim import (
    INDEX,
    OMEGA,
    AdditiveTheory,
    App,
    FiniteMod,
    FreeSymbolic,
    FrozenFieldError,
    IndexVar,
    InverseSystem,
    Lim,
    PwcSeq,
    Submodule,
    Sum,
    TranslimError,
    Var,
    basis_family,
    from_int,
)

ROOT = Path(__file__).resolve().parent.parent

Z4 = FiniteMod(4, (4,))
THEORY = AdditiveTheory(3, False)
FAMILY = basis_family(OMEGA)

# (class, constructor arguments, the fields that equality and hash read)
VALUES = {
    "FiniteMod": (FiniteMod, (4, (2, 4), False), (4, (2, 4), False)),
    "Submodule": (Submodule, (Z4, {(2,), (0,)}, ((2,),)),
                  (Z4, ((0,), (2,)))),
    "FreeSymbolic": (FreeSymbolic, (THEORY, OMEGA), (THEORY, OMEGA)),
    "AdditiveTheory": (AdditiveTheory, (3, False), (3, False)),
    "PwcSeq": (PwcSeq, (OMEGA, (from_int(0), OMEGA), ((1,),)),
               (OMEGA, (from_int(0), OMEGA), ((1,),))),
    "Var": (Var, (from_int(2),), (from_int(2),)),
    "IndexVar": (IndexVar, (), ()),
    "App": (App, ("+", (INDEX, Var(OMEGA))), ("+", (INDEX, Var(OMEGA)))),
    "Sum": (Sum, (OMEGA, FAMILY), (OMEGA, FAMILY)),
    "Lim": (Lim, (OMEGA, FAMILY), (OMEGA, FAMILY)),
    "InverseSystem": (InverseSystem, (OMEGA, (Z4,), (), "constant"),
                      (OMEGA, (Z4,), (), "constant")),
}


@pytest.mark.parametrize("name", VALUES)
def test_fields_refuse_assignment_and_deletion(name):
    cls, args, _ = VALUES[name]
    value = cls(*args)
    slots = [n for c in cls.__mro__ for n in getattr(c, "__slots__", ())]
    for field in (*slots, "extra"):
        with pytest.raises(FrozenFieldError, match="cannot assign"):
            setattr(value, field, None)
        with pytest.raises(AttributeError, match="cannot delete"):
            delattr(value, field)
    assert issubclass(FrozenFieldError, TranslimError)
    assert issubclass(FrozenFieldError, AttributeError)


@pytest.mark.parametrize("name", VALUES)
def test_hash_is_the_hash_of_the_field_tuple(name):
    cls, args, fields = VALUES[name]
    assert hash(cls(*args)) == hash(fields)


@pytest.mark.parametrize("name", VALUES)
def test_equality_holds_only_within_one_class(name):
    cls, args, fields = VALUES[name]
    value = cls(*args)
    twin = type(f"Twin{name}", (cls,), {"__slots__": ()})(*args)
    assert value == cls(*args) and not value != cls(*args)
    assert value != twin and twin != value
    assert value != fields


def test_sum_and_lim_nodes_of_one_family_differ():
    assert Sum(OMEGA, FAMILY) != Lim(OMEGA, FAMILY)
    assert hash(Sum(OMEGA, FAMILY)) == hash(Lim(OMEGA, FAMILY))


def _fresh_modules(code):
    """The modules that running code in a fresh interpreter loads."""
    code = ("import sys; before = set(sys.modules)\n" + code
            + "\nprint(' '.join(set(sys.modules) - before))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return set(subprocess.run([sys.executable, "-c", code], env=env,
                              check=True, capture_output=True,
                              text=True).stdout.split())


@pytest.mark.parametrize("module", ["translim", "translim.cli"])
def test_the_package_loads_without_dataclasses(module):
    # in a fresh interpreter: dataclasses and the modules it pulls in cost
    # more at start-up than the whole package
    loaded = _fresh_modules(f"import {module}")
    assert module in loaded
    unwanted = {"dataclasses", "inspect", "ast", "dis", "tokenize"}
    assert unwanted.isdisjoint(loaded)


# The translim submodules each entry point may load.  The package imports
# none; the CLI imports the parsers and the module layer, and a command the
# rest of what it uses when it runs.
LAYER = {"errors", "frozen", "ordinal", "pwcseq", "terms", "instances"}
CLI = LAYER | {"cli"}
EVALUATORS = CLI | {"sampling", "transfinite"}
SYSTEMS = EVALUATORS | {"diagrams"}
AUDIT = SYSTEMS | {"ab5check"}
ALLOWED = {
    "import translim": set(),
    "from translim import FiniteMod": LAYER,
    "import translim.cli": CLI,
    "ordinal_points_w2.txt": CLI,
    "limterm_build_wp2.txt": EVALUATORS,
    "sumterm_build_w.txt": CLI,
    "term_eval_z4.json": CLI,
    "check_limterm_w_z4_seed7.txt": EVALUATORS,
    "check_limterm_battery_wp1.txt": EVALUATORS,
    "check_ab5_inf_w_mod2.txt": AUDIT,
    "check_ab5_fin_w_mod2.txt": AUDIT,
    "check_refute_mod2_w_challenge.txt": EVALUATORS,
    "diagram_sample_mod4_seed3.json": SYSTEMS,
    "suite_run_all_seed0.txt": AUDIT | {"reports", "suites"},
}
ENTRY_POINTS = {
    "import translim": "import translim",
    "from translim import FiniteMod": "from translim import FiniteMod",
    "import translim.cli": "import translim.cli",
    **{name: ("import contextlib, io\nfrom translim.cli import main\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              f"    status = main({list(argv)!r})\n"
              "if status:\n"
              "    raise SystemExit(status)")
       for argv, name in GOLDEN_RUNS},
}


@pytest.mark.parametrize("case", ENTRY_POINTS)
def test_each_entry_point_loads_only_the_modules_it_uses(case):
    loaded = {m.split(".", 1)[1] for m in _fresh_modules(ENTRY_POINTS[case])
              if m.startswith("translim.")}
    assert loaded <= ALLOWED[case], sorted(loaded - ALLOWED[case])


EXPORTS = """
AdditiveTheory App AuditRow CaseResult DiagonalReport DivergentSumError
EtaVerdict FinitaryLimitVerdict FiniteMod FreeSymbolic FrozenFieldError
Homomorphism HomomorphismValidationError INDEX IndexOutOfRangeError
IndexVar InfiniteCarrierError InvalidAlphaError InverseSystem
LengthMismatchError LevelwiseNotEpiError Lim LimitObject LimitTermReport
ModuleValidationError OMEGA ONE Ordinal OrdinalUnderflowError ParseError
PositiveVerdictError PwcSeq RefutationWitness ResourceLimitError
SectionReport Submodule SuiteReport Sum SummationReport
SurjectivityReport SystemMorphism TEST_ORDINALS TheoryMismatchError
TranslimError UnboundVariableError UnknownSuiteError Var ZERO ZERO_TERM
ab5_suite ab5check audit_point basis_family build_lim_term
check_constants_fixed check_inverse_limit_surjectivity
check_prefix_independence check_term colimit_object
compose_system_morphisms diagonal_factorization diagrams diagrams_suite
equivalence_audit errors eta_surjective_decision evaluate
extend_by_zero_comparison extend_by_zero_system format_ordinal
format_pwc format_term from_int frozen induced_limit_map instances
is_regular_epi left_subtract lim_eval lim_to_prod_section_check
lim_value limit_object omega_power ordinal parse_instance parse_ordinal
parse_pwc parse_term parse_theory pwcseq refute_limit_term_finitary
reports restrict_sum retract_product_levels run_suite
sample_points_below sampling scal standard_battery substitute
substitute_family suites sum_eval_from_lim sum_term
summation_naturality_check summation_term_check system_from_json
system_to_json terms transfinite transfinite_suite validate_refutation
var variable_ceiling verify_limit_term weighted_sum_term zero_module
""".split()


def test_every_exported_name_resolves():
    assert sorted(translim.__all__) == EXPORTS and len(EXPORTS) == 117
    assert set(EXPORTS) <= set(dir(translim))
    # in a fresh interpreter, each name through the package's __getattr__,
    # which keeps what it resolved
    loaded = _fresh_modules(
        "import translim\n"
        "for name in translim.__all__:\n"
        "    value = getattr(translim, name)\n"
        "    if getattr(translim, name) is not value:\n"
        "        raise SystemExit(name)\n"
        "from translim import *")
    submodules = LAYER | {"sampling", "transfinite", "diagrams", "ab5check",
                          "reports", "suites"}
    assert len(submodules) == 12 and submodules <= set(EXPORTS)
    assert {f"translim.{m}" for m in submodules} <= loaded
    with pytest.raises(AttributeError, match="no attribute 'lim_evil'"):
        translim.lim_evil
