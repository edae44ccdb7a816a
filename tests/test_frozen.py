"""The value types are immutable slotted classes, compared and hashed by
their fields, and the package loads without `dataclasses`.

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


@pytest.mark.parametrize("module", ["translim", "translim.cli"])
def test_the_package_loads_without_dataclasses(module):
    # in a fresh interpreter: dataclasses and the modules it pulls in cost
    # more at start-up than the whole package
    code = ("import sys; before = set(sys.modules); "
            f"import {module}; print(' '.join(set(sys.modules) - before))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    loaded = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                            capture_output=True, text=True).stdout.split()
    assert module in loaded
    unwanted = {"dataclasses", "inspect", "ast", "dis", "tokenize"}
    assert unwanted.isdisjoint(loaded)
