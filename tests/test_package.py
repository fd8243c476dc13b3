import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import flemvi

MODULES = [f"flemvi.{m.name}" for m in pkgutil.iter_modules(flemvi.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_public_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names undefined attributes: {missing}"


def test_cli_import_leaves_out_scipy_stats():
    # scipy.stats alone adds about half a second to every CLI call's start-up
    code = "import sys, flemvi.cli; print('scipy.stats' in sys.modules)"
    src = os.path.dirname(os.path.dirname(flemvi.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=120)
    assert out.stdout.strip() == "False"
