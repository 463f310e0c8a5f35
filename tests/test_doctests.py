"""The ``>>>`` examples in the package docstrings run and pass."""

import doctest
import importlib
import pkgutil

import pytest

import wgmono

MODULES = ["wgmono"] + [f"wgmono.{m.name}" for m in pkgutil.iter_modules(wgmono.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    assert doctest.testmod(importlib.import_module(name)).failed == 0
