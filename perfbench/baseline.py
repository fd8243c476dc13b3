"""Run the benchmark over two sets of seeds, check its steadiness, and record
the baseline.

    python3 perfbench/baseline.py            # check only
    python3 perfbench/baseline.py --write    # also write the files below

Each set runs ``run.py --trace 0`` once per seed on every workload, seeds
1-10 in the first set and 11-20 in the second, so the second set also
re-checks the first on inputs it did not use.  For each end-to-end metric it
prints the median and the spread of each set: the distance between the first
and third quartiles of the per-seed values (``statistics.quantiles(values,
n=4)``) as a share of their median.  The benchmark counts as steady when
every spread is below a third of its metric's bound (``setup_s`` is exempt)
and the two sets' medians differ by less than the bound.  One traced run per
workload, at seed 1, gives the per-layer medians.

With ``--write`` it writes perfbench/baseline.json (every value, the medians
and the environment stamp) and regenerates BENCHMARK.json at the root of the
checkout from the metric and workload tables.  Runs are sequential: the
machine's cores belong to the run being measured.  The exit code is 0 only
when the benchmark is steady and no call failed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import END_TO_END, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

RUN_SECONDS = 35
SETS = (range(1, 11), range(11, 21))


def manifest():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [{"name": name, "unit": unit, "better": better, "bound": bound}
                       for name, (unit, better, bound) in END_TO_END.items()],
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, (unit, better) in PER_LAYER.items()],
    }


def bench(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(RUN_SECONDS), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    env = next(json.loads(ln[4:]) for ln in lines if ln.startswith("env "))
    summary = next(ln for ln in lines if ln.startswith("summary "))
    return json.loads(lines[-1]), env, summary


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def run_set(seeds, record):
    """Untraced runs of every workload at ``seeds``; returns whether every
    gated spread is below a third of its bound."""
    steady = True
    for name in WORKLOADS:
        runs = []
        for seed in seeds:
            out, env, summary = bench(name, seed, 0)
            runs.append(out)
            print(summary, flush=True)
            record.setdefault("env", env)
        entry = {
            "seeds": list(seeds),
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {},
        }
        for metric, (unit, _better, bound) in END_TO_END.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            med, q1, q3, share = spread(values)
            ok = metric == "setup_s" or share < bound / 3
            steady &= ok
            entry["end_to_end"][metric] = {
                "unit": unit, "median": med, "q1": q1, "q3": q3, "spread": share,
                "bound": bound, "values": values}
            print(f"{name:9s} {metric:12s} median {med:10.4f} {unit:3s} spread {share:.4f} "
                  f"(bound/3 {bound / 3:.4f}){'' if ok else '  TOO WIDE'}", flush=True)
        record["sets"].setdefault(name, []).append(entry)
    return steady


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args(argv)

    record = {"run_seconds": RUN_SECONDS, "sets": {}, "per_layer": {}}
    steady = all([run_set(seeds, record) for seeds in SETS])

    for name, (first, second) in record["sets"].items():
        for metric, (unit, _better, bound) in END_TO_END.items():
            a, b = first["end_to_end"][metric]["median"], second["end_to_end"][metric]["median"]
            ok = abs(b / a - 1.0) < bound
            steady &= ok
            print(f"{name:9s} {metric:12s} medians {a:10.4f} / {b:10.4f} {unit:3s} "
                  f"ratio {b / a:.4f} (bound {bound}){'' if ok else '  DISAGREE'}", flush=True)

    for name in WORKLOADS:
        traced, _env, summary = bench(name, 1, 1)
        print(summary, flush=True)
        record["per_layer"][name] = {
            "correct": traced["correct"], "attempted": traced["attempted"],
            "failed": traced["failed"], "metrics": traced["metrics"]}
        for metric, (unit, _better) in PER_LAYER.items():
            print(f"{name:9s} {metric:32s} {traced['metrics'][metric]['value']:.6g} {unit}")

    failed = sum(e["failed"] for entries in record["sets"].values() for e in entries)
    failed += sum(t["failed"] for t in record["per_layer"].values())
    print(f"failed calls: {failed}")
    print("steady" if steady else "NOT steady: a spread is above a third of its bound "
          "or the two sets disagree")
    if args.write:
        with open(os.path.join(HERE, "baseline.json"), "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as fh:
            json.dump(manifest(), fh, indent=2)
            fh.write("\n")
    return 0 if steady and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
