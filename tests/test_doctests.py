"""Run the doctests of every translim module."""

import doctest
import importlib
import pkgutil

import pytest

import translim

MODULES = sorted(info.name for info in pkgutil.iter_modules(
    translim.__path__, translim.__name__ + "."))


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests_pass(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0


def test_ordinal_doctests_are_collected():
    # the module example, left_subtract and split_finite
    assert doctest.testmod(translim.ordinal).attempted == 4
