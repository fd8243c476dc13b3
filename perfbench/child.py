"""One timed ``flemvi verify`` call in a fresh interpreter.

Usage: python3 child.py SPEC_JSON

SPEC_JSON names the source directory, config, suite, seed, jobs, output
directory, whether to trace, and where to write the result.  The result file
holds set-up time (import of ``flemvi.cli`` plus ``load_config``), the wall
time of the ``flemvi.cli.main`` verify call, its exit code, process CPU and
peak RSS, and with tracing the per-layer summary and any span problems.  No
result file is written when the call raises; the exit code is then 70.
"""

import contextlib
import json
import os
import resource
import sys
import time
import traceback


def _cpu_s():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(spec_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    src = os.path.abspath(spec["src"])
    sys.path.insert(0, src)

    t0 = time.perf_counter()
    import flemvi.cli as cli

    cli.load_config(spec["config"])
    setup_s = time.perf_counter() - t0
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise RuntimeError(f"flemvi imported from {cli.__file__}, not from {src}")

    argv = ["verify", "--config", spec["config"], "--suite", spec["suite"],
            "--seed", str(spec["seed"]), "--jobs", str(spec["jobs"]),
            "--out", spec["out"]]
    result = {"setup_s": setup_s}
    tracer = None
    if spec["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import layertrace

        before = layertrace.snapshot()
        tracer = layertrace.Tracer().install()

    with open(os.path.join(spec["out"], "stdout.txt"), "w") as log, \
            contextlib.redirect_stdout(log):
        cpu0 = _cpu_s()
        t1 = time.perf_counter()
        try:
            if tracer is None:
                code = cli.main(argv)
            else:
                code = tracer.call("cli.main", cli.main, argv)
        finally:
            wall_s = time.perf_counter() - t1
            cpu_s = _cpu_s() - cpu0
            if tracer is not None:
                tracer.remove()

    result.update(wall_s=wall_s, cpu_s=cpu_s, exit_code=code,
                  maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    if tracer is not None:
        threads = tracer.threads()
        result["layers"] = layertrace.summarize(threads)
        result["span_problems"] = layertrace.check_spans(threads)
        result["leftover_patches"] = layertrace.changed(before, layertrace.snapshot())
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1]))
    except Exception:
        traceback.print_exc()
        sys.exit(70)
