import importlib
import pkgutil

import pytest

import pagelog

MODULES = ["pagelog", *(f"pagelog.{m.name}" for m in pkgutil.iter_modules(pagelog.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_exports_resolve(name):
    # A stale __all__ entry fails only on ``from module import *``; check each name here.
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
