"""Every name a module exports in ``__all__`` exists."""

import importlib
import pkgutil

import pytest

import conflictnet

MODULES = ["conflictnet"] + sorted(
    f"conflictnet.{info.name}" for info in pkgutil.iter_modules(conflictnet.__path__)
)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
