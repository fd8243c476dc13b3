"""Fingerprint the seeded ``flemvi verify`` reports of a source tree, so that
two trees (say a commit and its parent) can be compared byte for byte.

Usage:

    python3 tools/bytecheck.py SRC_DIR > sums.txt

SRC_DIR is the directory that holds the ``flemvi`` package (a checkout's
``src``).  For every workload config of ``perfbench/workloads.py``, at flemvi
seeds 64, 65, 66, 130 and 192 and with ``--jobs`` 1 and 2, it runs one
``flemvi verify`` call in a fresh interpreter on that tree and prints one
``sha256  name`` line per report.  The first line names numpy's version and
the SIMD targets it found on this CPU, because some of numpy's kernels give
other bits on other targets: compare two listings only when that line
matches.  The exit code is 0 when every call exited 0 or 1 and wrote its
report, 1 otherwise.  Nothing under ``perfbench/`` is written.
"""

import argparse
import hashlib
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

# runs flemvi.cli.main on argv[2:] with the tree argv[1] first on the path
_CALL = """\
import os, sys
src = os.path.abspath(sys.argv[1])
sys.path.insert(0, src)
import flemvi.cli as cli
if not os.path.abspath(cli.__file__).startswith(src + os.sep):
    sys.exit(f"flemvi imported from {cli.__file__}, not from {src}")
sys.exit(cli.main(sys.argv[2:]))
"""


def simd_line():
    """numpy's version and the SIMD dispatch targets it found on this CPU."""
    import numpy as np

    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    found = [name for name in __cpu_dispatch__ if __cpu_features__.get(name)]
    return f"# numpy {np.__version__} SIMD found: {' '.join(found) or '(none)'}"


def report_sum(src, workload, seed, jobs, work):
    """sha256 of the report of one verify call, or None if the call failed."""
    out = os.path.join(work, f"{workload.name}_{seed}_{jobs}")
    config = out + ".json"
    with open(config, "w") as fh:
        json.dump(workload.make_config(seed), fh)
    argv = ["verify", "--config", config, "--suite", workload.suite, "--seed", str(seed),
            "--jobs", str(jobs), "--out", out]
    proc = subprocess.run([sys.executable, "-c", _CALL, src, *argv], cwd=work,
                          stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    path = os.path.join(out, f"report_{workload.suite}.json")
    if proc.returncode not in (0, 1) or not os.path.exists(path):
        tail = proc.stderr.strip().splitlines()[-1:]
        print(f"FAIL {workload.name} seed={seed} jobs={jobs}: exit {proc.returncode} {tail}",
              file=sys.stderr)
        return None
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


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
        for workload in WORKLOADS.values():
            for seed in SEEDS:
                for jobs in JOBS:
                    digest = report_sum(src, workload, seed, jobs, work)
                    ok = ok and digest is not None
                    name = f"{workload.name}/seed={seed}/jobs={jobs}/report_{workload.suite}.json"
                    print(f"{digest or 'FAILED'}  {name}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
