"""The names the package and its modules export all exist, and the package
exports exactly its public attributes."""

import importlib
import pkgutil
import types

import pytest

import dmparam

MODULES = sorted(info.name for info in pkgutil.iter_modules(dmparam.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"dmparam.{name}")
    assert not [k for k in getattr(module, "__all__", ()) if not hasattr(module, k)]


def test_package_all_is_its_public_attributes():
    public = {k for k, v in vars(dmparam).items()
              if not k.startswith("_") and not isinstance(v, types.ModuleType)}
    assert len(dmparam.__all__) == len(set(dmparam.__all__))
    assert set(dmparam.__all__) == public
