"""Fingerprint the seeded outputs of a source tree, so that two trees (say a
commit and its parent) can be compared byte for byte.

Usage:

    python3 tools/bytecheck.py SRC_DIR > sums.txt

SRC_DIR is the directory that holds the ``flemvi`` package (a checkout's
``src``).  Every call runs in a fresh interpreter on that tree, and each
output gets one ``sha256  name`` line:

- for every workload config of ``perfbench/workloads.py``, at flemvi seeds
  64, 65, 66, 130 and 192 and with ``--jobs`` 1 and 2, the report of one
  ``flemvi verify`` call;
- for the config of README.md's schema block, the artifacts of ``flemvi
  simulate``, of ``flemvi verify --suite identities`` and ``--suite jumps``
  and of ``flemvi flow`` at its default times and at ``0,0.25,0.5``;
- for the ``operator`` workload config at seed 64 with survivor-copy
  relocation (``"kernel": "uniform_survivor"``), and with a two-mode
  observable whose powers are 2 and 3 (``P23``), the report of ``flemvi
  verify --suite operator_limits``;
- at seed 64 and with ``--jobs`` 1 and 2, the report of ``flemvi verify
  --suite jumps`` for the ``exit2d`` workload config with its component's
  ``"comparison_c"`` pinned at 25 (a relocation's first round of 64
  proposals then often accepts none), and for the ``operator`` workload
  config with ``"kernel": "mixture_reweighted"`` (one-component relocation
  on an interval);
- at seed 64 and with ``--jobs`` 1 and 2, the reports of ``flemvi verify
  --suite operator_limits`` and ``--suite jumps`` for the ``operator``
  workload config with ``"kernel": "mixture_reweighted"`` and its
  component's ``"comparison_c"`` pinned at 25, so that stepping's
  one-point relocations also see first rounds that accept nothing;
- at seed 64 and with ``--jobs`` 1 and 2, the report of ``flemvi verify
  --suite convergence`` for the ``exit2d`` workload config (a stepped 2-D
  stack) with a second component ``{"2": 0.05}``, with survivor-copy
  relocation, and with ground-mode relocation.

The last line is what README.md's quick-start program prints.  The first
line names numpy's version and the SIMD targets it found on this CPU,
because some of numpy's kernels give other bits on other targets: compare
two listings only when that line matches.  The exit code is 0 when every
call exited as it should (``verify`` with 0 or 1, the others with 0) and
wrote its outputs, 1 otherwise.  Nothing under ``perfbench/`` is written.
"""

import argparse
import hashlib
import itertools
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
sys.dont_write_bytecode = True  # leave no __pycache__ under perfbench/

from workloads import WORKLOADS  # noqa: E402

SEEDS = (64, 65, 66, 130, 192)
JOBS = (1, 2)
# the workloads observe m1 only, whose power is 1; these powers go through
# numpy's power with other exponents, over more than one term
P23 = {"name": "p23", "modes": [1, 2], "terms": [[1.0, [2, 0]], [-0.5, [1, 3]]]}
# a one-component mixture whose relocation rounds of 64 proposals accept none w.p. about 0.2
C25_MIXTURE = {"kernel": "mixture_reweighted",
               "components": [{"weight": 1.0, "modes": {}, "comparison_c": 25}]}
# (workload, suite, tag, config overrides, --jobs values); None passes no --jobs
VARIANTS = (
    ("operator", "operator_limits", "kernel=uniform_survivor", {"kernel": "uniform_survivor"},
     (None,)),
    ("operator", "operator_limits", "observable=p23", {"observables": [P23]}, (None,)),
    ("exit2d", "jumps", "comparison_c=25",
     {"components": [{"weight": 1.0, "modes": {}, "comparison_c": 25}]}, JOBS),
    ("operator", "jumps", "kernel=mixture_reweighted", {"kernel": "mixture_reweighted"}, JOBS),
    ("operator", "operator_limits", "kernel=mixture_reweighted,comparison_c=25", C25_MIXTURE,
     JOBS),
    ("operator", "jumps", "kernel=mixture_reweighted,comparison_c=25", C25_MIXTURE, JOBS),
    ("exit2d", "convergence", "components=2",
     {"components": [{"weight": 0.6, "modes": {}}, {"weight": 0.4, "modes": {"2": 0.05}}]}, JOBS),
    ("exit2d", "convergence", "kernel=uniform_survivor", {"kernel": "uniform_survivor"}, JOBS),
    ("exit2d", "convergence", "kernel=ground_mode", {"kernel": "ground_mode"}, JOBS),
)

# puts the tree argv[1] first on the path and checks that flemvi loads from it
_PRELUDE = """\
import os, sys
src = os.path.abspath(sys.argv[1])
sys.path.insert(0, src)
import flemvi
if not os.path.abspath(flemvi.__file__).startswith(src + os.sep):
    sys.exit(f"flemvi imported from {flemvi.__file__}, not from {src}")
"""
# runs flemvi.cli.main on argv[2:]
_CALL = _PRELUDE + "import flemvi.cli as cli\nsys.exit(cli.main(sys.argv[2:]))\n"


def simd_line():
    """numpy's version and the SIMD dispatch targets it found on this CPU."""
    import numpy as np

    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    found = [name for name in __cpu_dispatch__ if __cpu_features__.get(name)]
    return f"# numpy {np.__version__} SIMD found: {' '.join(found) or '(none)'}"


def readme_block(heading, lang):
    """The first ``lang`` code block after ``heading`` in README.md."""
    with open(os.path.join(ROOT, "README.md")) as fh:
        text = fh.read()
    fence = f"```{lang}\n"
    start = text.index(fence, text.index(heading)) + len(fence)
    return text[start:text.index("```", start)]


def run(src, code, args, work, ok_codes=(0,)):
    """Run ``code`` in a fresh interpreter on the tree ``src`` with ``args``;
    returns its standard output, or None (after a note on stderr) if it
    exited with a code not in ``ok_codes``."""
    proc = subprocess.run([sys.executable, "-c", code, src, *args], cwd=work,
                          stdin=subprocess.DEVNULL, capture_output=True, text=True)
    if proc.returncode not in ok_codes:
        tail = proc.stderr.strip().splitlines()[-1:]
        print(f"FAIL {' '.join(args) or 'quick start'}: exit {proc.returncode} {tail}",
              file=sys.stderr)
        return None
    return proc.stdout


def file_sum(path):
    """sha256 of a file, or None if it is missing."""
    if not os.path.exists(path):
        print(f"FAIL missing {path}", file=sys.stderr)
        return None
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def cli_sums(src, argv, names, work, out, ok_codes=(0,)):
    """[(name, sha256 or None)] of the files ``names`` that one CLI call
    writes to ``out``."""
    done = run(src, _CALL, [*argv, "--out", out], work, ok_codes) is not None
    return [(name, file_sum(os.path.join(out, name)) if done else None) for name in names]


def workload_sums(src, work):
    for workload in WORKLOADS.values():
        for seed in SEEDS:
            for jobs in JOBS:
                tag = f"{workload.name}_{seed}_{jobs}"
                config = os.path.join(work, tag + ".json")
                with open(config, "w") as fh:
                    json.dump(workload.make_config(seed), fh)
                argv = ["verify", "--config", config, "--suite", workload.suite,
                        "--seed", str(seed), "--jobs", str(jobs)]
                report = f"report_{workload.suite}.json"
                [(_, digest)] = cli_sums(src, argv, [report], work, os.path.join(work, tag),
                                         ok_codes=(0, 1))
                yield f"{workload.name}/seed={seed}/jobs={jobs}/{report}", digest


def readme_sums(src, work):
    config = os.path.join(work, "readme.json")
    with open(config, "w") as fh:
        fh.write(readme_block("### Config schema", "json"))
    calls = [
        ("simulate", ["simulate"], ["trajectory.csv", "jumps.csv", "manifest.json"], (0,)),
        ("verify_identities", ["verify", "--suite", "identities"],
         ["report_identities.json"], (0, 1)),
        ("verify_jumps", ["verify", "--suite", "jumps"], ["report_jumps.json"], (0, 1)),
        ("flow", ["flow"], ["flow.csv"], (0,)),
        ("flow_0,0.25,0.5", ["flow", "--times", "0,0.25,0.5"], ["flow.csv"], (0,)),
    ]
    for tag, argv, names, ok_codes in calls:
        out = os.path.join(work, "readme_" + tag)
        for name, digest in cli_sums(src, [*argv, "--config", config], names, work, out,
                                     ok_codes):
            yield f"readme/{tag}/{name}", digest


def variant_sums(src, work):
    for name, suite, tag, overrides, jobs_values in VARIANTS:
        report = f"report_{suite}.json"
        config = os.path.join(work, f"{name}_{tag}.json")
        with open(config, "w") as fh:
            json.dump(dict(WORKLOADS[name].make_config(SEEDS[0]), **overrides), fh)
        for jobs in jobs_values:
            argv = ["verify", "--config", config, "--suite", suite]
            where = f"{name}/{tag}/"
            if jobs is not None:
                argv += ["--jobs", str(jobs)]
                where += f"jobs={jobs}/"
            [(_, digest)] = cli_sums(src, argv, [report], work,
                                     os.path.join(work, where.replace("/", "_")), ok_codes=(0, 1))
            yield where + report, digest


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", help="directory holding the flemvi package")
    args = parser.parse_args(argv)
    src = os.path.abspath(args.src)
    if not os.path.isfile(os.path.join(src, "flemvi", "cli.py")):
        parser.error(f"no flemvi package under {src}")
    print(simd_line(), flush=True)
    ok = True
    with tempfile.TemporaryDirectory() as work:
        sums = itertools.chain(workload_sums(src, work), readme_sums(src, work),
                               variant_sums(src, work))
        for name, digest in sums:
            ok = ok and digest is not None
            print(f"{digest or 'FAILED'}  {name}", flush=True)
        printed = run(src, _PRELUDE + readme_block("## Quick start", "python"), [], work)
        ok = ok and printed is not None
        print(f"quick start: {(printed or 'FAILED').strip()}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
