"""Tests for the public names each module exports."""

import importlib
import pkgutil

import pytest

import critkernels

MODULES = sorted(m.name for m in pkgutil.iter_modules(critkernels.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # [TRIVIAL] every name listed in a module's __all__ is defined there
    module = importlib.import_module(f"critkernels.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, missing
