"""Every name a module lists in ``__all__`` resolves on that module."""

import importlib
import pkgutil

import pytest

import hyperburg

MODULES = ["hyperburg"] + [
    f"hyperburg.{info.name}" for info in pkgutil.iter_modules(hyperburg.__path__)
]


@pytest.mark.parametrize(
    "name", [m for m in MODULES if hasattr(importlib.import_module(m), "__all__")]
)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, missing
