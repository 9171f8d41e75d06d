"""Run the examples in every steinwhit docstring as tests."""

import doctest
import importlib
import pkgutil

import pytest

import steinwhit

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(steinwhit.__path__, prefix="steinwhit.")
)


@pytest.mark.parametrize("name", ["steinwhit"] + MODULES)
def test_module_doctests(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0, f"{result.failed} of {result.attempted} doctests failed in {name}"


def test_doctests_exist():
    attempted = sum(doctest.testmod(importlib.import_module(name)).attempted for name in MODULES)
    assert attempted >= 29
