import ast
import importlib
import os
import pathlib
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


_SEEDED_RNG_API = {"Generator", "Philox", "SeedSequence", "default_rng"}


def _unseeded_randomness(tree):
    """Uses of numpy's global random state and default_rng() calls without a seed."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
                and isinstance(node.value.value, ast.Name)
                and node.value.value.id in ("np", "numpy") and node.value.attr == "random"
                and node.attr not in _SEEDED_RNG_API):
            yield node.lineno, f"np.random.{node.attr}"
        if isinstance(node, ast.ImportFrom) and node.module == "numpy.random":
            for alias in node.names:
                if alias.name not in _SEEDED_RNG_API:
                    yield node.lineno, f"from numpy.random import {alias.name}"
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            unseeded = not node.args or (isinstance(node.args[0], ast.Constant)
                                         and node.args[0].value is None)
            if name == "default_rng" and unseeded and not node.keywords:
                yield node.lineno, "default_rng() without a seed"


def test_every_random_number_comes_from_a_seeded_stream():
    found = [f"{path.name}:{line}: {what}"
             for path in sorted(pathlib.Path(flemvi.__file__).parent.glob("*.py"))
             for line, what in _unseeded_randomness(ast.parse(path.read_text()))]
    assert not found, found


def _run_python(code):
    src = os.path.dirname(os.path.dirname(flemvi.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True, timeout=120).stdout


def test_readme_quick_start_prints_its_documented_output():
    text = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    start = text.index("```python\n", text.index("## Quick start")) + len("```python\n")
    block = text[start:text.index("```", start)]
    [documented] = [line[len("# -> "):] for line in block.splitlines() if line.startswith("# -> ")]
    assert _run_python(block).strip() == documented.split(" (", 1)[0]


def test_cli_import_leaves_out_scipy_stats():
    # scipy alone took about 225 ms of every CLI call's start-up; the runtime needs numpy only
    code = "import sys, flemvi.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    assert _run_python(code).strip() == "[]"


_VERIFY_IMPORTS = """
import contextlib, io, json, os, sys, tempfile
import flemvi.cli
before = set(sys.modules)
out = tempfile.mkdtemp()
cfg = {"domain": {"kind": "interval", "bounds": [0.0, 3.141592653589793]}, "truncation": 8,
       "components": [{"weight": 0.6, "modes": {}}, {"weight": 0.4, "modes": {"2": 0.05}}],
       "kernel": "mixture_reweighted", "n_list": [4, 8], "replicas": 4, "dt": 0.05,
       "horizon": 2.0, "observables": [{"name": "m1", "modes": [1], "terms": [[1.0, [1]]]}],
       "seed": 3, "output_dir": out}
path = os.path.join(out, "run.json")
with open(path, "w") as fh:
    json.dump(cfg, fh)
with contextlib.redirect_stdout(io.StringIO()):
    code = flemvi.cli.main(["verify", "--config", path, "--suite", "all", "--out", out])
print(code, sorted(m for m in set(sys.modules) - before
                   if m.split(".")[0] == "scipy" or m.startswith("numpy.")))
"""


def test_verify_call_imports_no_numpy_submodule_or_scipy():
    # numpy loads some submodules lazily; a verify call must not pay for them
    assert _run_python(_VERIFY_IMPORTS).split(" ", 1)[1].strip() == "[]"


def test_threaded_verify_call_leaves_out_the_executor():
    # concurrent.futures pulls in logging, queue, traceback and string: several ms of start-up
    code = _VERIFY_IMPORTS.replace('"--out", out]', '"--out", out, "--jobs", "2"]') + \
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('concurrent', 'logging')))\n"
    assert _run_python(code).splitlines()[-1] == "[]"


# a module imports only from modules of a lower layer; kernels and measures share one
_LAYERS = (("geometry",), ("spectral",), ("kernels", "measures"), ("simulator",), ("verify",), ("cli",))


def test_modules_import_only_from_lower_layers():
    layer = {name: i for i, names in enumerate(_LAYERS) for name in names}
    assert sorted(f"flemvi.{name}" for name in layer) == sorted(MODULES)
    pkg = pathlib.Path(flemvi.__file__).parent
    upward = [f"{name} imports .{node.module}"
              for name in layer
              for node in ast.walk(ast.parse((pkg / f"{name}.py").read_text()))
              if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
              and layer[node.module] >= layer[name]]
    assert not upward, upward


_SIZES_SAMPLE = '''\
import dataclasses
from dataclasses import dataclass, field


def f(a, b=1, *, c=2, d):
    def inner(x=0):
        return x
    return lambda y=3: y


@dataclass(frozen=True)
class A:
    z: int
    x: int = 0
    y: list = field(default_factory=list)


@dataclasses.dataclass
class B:
    w: int = 1


class C:
    v: int = 5
    u = 6

    def m(self, k=7):
        return k
'''


def test_sizes_counts_lines_and_the_documented_defaults(tmp_path):
    # b, c, x (nested), A.x, A.y, B.w, k: not the lambda's y, C.v or C.u
    (tmp_path / "flemvi").mkdir()
    (tmp_path / "flemvi" / "__init__.py").write_text("")
    (tmp_path / "flemvi" / "mod.py").write_text(_SIZES_SAMPLE)
    tool = pathlib.Path(__file__).resolve().parents[1] / "tools" / "sizes.py"
    out = subprocess.run([sys.executable, str(tool), str(tmp_path)], capture_output=True,
                         text=True, check=True, timeout=60).stdout.splitlines()
    lines = _SIZES_SAMPLE.count("\n")
    assert out == ["     0 lines    0 defaults  __init__.py",
                   f"{lines:6d} lines    7 defaults  mod.py",
                   f"{lines:6d} lines    7 defaults  total"]


_LISTING = """\
# numpy 2.4.6 SIMD found: X86_V3
{a}  ladder/seed=64/jobs=1/report_convergence.json [steps]
{b}  exit2d/seed=64/jobs=1/report_jumps.json
quick start: {q} vs 0.6266570686577502 [steps]
"""


@pytest.mark.parametrize("moved,code", [("", 0), ("a", 0), ("q", 0), ("b", 1), ("simd", 1)])
def test_bytecheck_compare_lets_only_stepped_lines_move(tmp_path, moved, code):
    old = _LISTING.format(a="1" * 64, b="2" * 64, q="0.61")
    new = _LISTING.format(a="3" * 64 if moved == "a" else "1" * 64,
                          b="4" * 64 if moved == "b" else "2" * 64,
                          q="0.63" if moved == "q" else "0.61")
    if moved == "simd":
        new = new.replace("X86_V3", "X86_V3 X86_V4")
    (tmp_path / "old.txt").write_text(old)
    (tmp_path / "new.txt").write_text(new)
    tool = pathlib.Path(__file__).resolve().parents[1] / "tools" / "bytecheck.py"
    proc = subprocess.run([sys.executable, str(tool), "--compare", str(tmp_path / "old.txt"),
                           str(tmp_path / "new.txt")], capture_output=True, text=True, timeout=60)
    assert proc.returncode == code, proc.stdout
    assert ("CHANGED" in proc.stdout) == (moved == "b")
