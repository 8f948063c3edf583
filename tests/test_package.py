"""The package's export lists."""

import importlib
import pkgutil

import pytest

import sigsurv

MODULES = sorted(m.name for m in pkgutil.iter_modules(sigsurv.__path__))


def test_the_submodules_are_found():
    # an empty list would silently parametrize nothing below
    assert "net" in MODULES and "cli" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"sigsurv.{name}")
    exported = getattr(module, "__all__", [])
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"sigsurv.{name}.__all__ names {missing}"
