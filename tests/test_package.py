import importlib
import pkgutil

import pytest

import flemvi

MODULES = [f"flemvi.{m.name}" for m in pkgutil.iter_modules(flemvi.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_public_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names undefined attributes: {missing}"
