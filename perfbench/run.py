"""flemvi benchmark: time to a ``flemvi verify`` verdict, per workload.

Usage (from anywhere; the checkout is this file's grandparent directory):

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 30 --trace 0

Each sample is one ``flemvi.cli.main(["verify", ...])`` call in a fresh
interpreter (perfbench/child.py) on the checkout's ``src``, on one of the
inputs that ``workloads.input_seeds`` draws from ``--seed``.  With
``--trace 0`` the run first makes one reference call on the first input at
the other ``--jobs`` value, then gives each call the next input, one call per
input, until ``--seconds`` have passed, and reports the medians of the
end-to-end metrics.  With ``--trace 1`` it repeats rounds of three calls on
the first input (untraced, untraced at the other ``--jobs`` value, traced)
and reports the medians of the per-layer metrics (see layertrace.py).

Every call is checked: exit code 0 or 1, no crash, a report with exactly the
rows and sample counts the config implies, report bytes identical to every
other call of the run on the same input (reruns; other ``--jobs``; traced or
not), and for traced calls well-nested spans and no wrapper left behind.  The
last line of standard output is one JSON object: correct, attempted, failed,
metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS, expected_rows, input_seeds  # noqa: E402

# name -> (unit, better, bound); the bound is the share of the parent's
# median by which the metric may worsen
END_TO_END = {
    "wall_s": ("s", "lower", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

PER_LAYER = {
    "kernels.relocate.calls": ("count", "lower"),
    "kernels.relocate.self_s": ("s", "lower"),
    "simulator.relocations": ("count", "lower"),
    "kernels.relocate.total_s": ("s", "lower"),
    "kernels.init_sample.calls": ("count", "lower"),
    "kernels.init_sample.self_s": ("s", "lower"),
    "kernels.init_sample.total_s": ("s", "lower"),
    "kernels.proposals": ("count", "lower"),
    "kernels.accepted": ("count", "lower"),
    "kernels.accept_ratio": ("ratio", "higher"),
    "spectral.eigmat.calls": ("count", "lower"),
    "spectral.eigmat.self_s": ("s", "lower"),
    "spectral.evals": ("count", "lower"),
    "spectral.eigfn.calls": ("count", "lower"),
    "spectral.eigfn.self_s": ("s", "lower"),
    "spectral.density.calls": ("count", "lower"),
    "spectral.density.self_s": ("s", "lower"),
    "simulator.step.calls": ("count", "lower"),
    "simulator.step.self_s": ("s", "lower"),
    "simulator.particle_steps": ("count", "lower"),
    "simulator.detect_hits.calls": ("count", "lower"),
    "simulator.detect_hits.self_s": ("s", "lower"),
    "simulator.first_exit.self_s": ("s", "lower"),
    "simulator.first_exit.total_s": ("s", "lower"),
    "simulator.exit_configs": ("count", "lower"),
    "simulator.exit_steps": ("count", "lower"),
    "simulator.replica.calls": ("count", "lower"),
    "simulator.replica.self_s": ("s", "lower"),
    "simulator.replica.p50_ms": ("ms", "lower"),
    "simulator.replica.pmax_ms": ("ms", "lower"),
    "simulator.replica.wait_share": ("share", "lower"),
    "simulator.run_replicas.self_s": ("s", "lower"),
    "simulator.jobs_speedup": ("ratio", "higher"),
    "measures.observe.calls": ("count", "lower"),
    "measures.observe.self_s": ("s", "lower"),
    "measures.empirical.calls": ("count", "lower"),
    "measures.empirical.self_s": ("s", "lower"),
    "cli.build.self_s": ("s", "lower"),
    "cli.build.total_s": ("s", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "verify.oracle.calls": ("count", "lower"),
    "verify.oracle.self_s": ("s", "lower"),
    "verify.reduce.self_s": ("s", "lower"),
    "verify.rows_passed": ("count", "higher"),
    "verify.rows_total": ("count", "higher"),
    "proc.cpu_s": ("s", "lower"),
    "tracing.overhead": ("ratio", "lower"),
}

MIN_SAMPLES = 3
CHILD_TIMEOUT_S = 150.0
RUN_LIMIT_S = 170.0


class Failure(Exception):
    """A call that does not count as a correct sample."""


def environment(seed):
    """Machine and code stamp for the run."""
    from importlib.metadata import PackageNotFoundError, version

    def ver(pkg):
        try:
            return version(pkg)
        except PackageNotFoundError:
            return None

    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        git_rev = rev.stdout.strip() if rev.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        git_rev = None
    digest = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "flemvi")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": ver("numpy"),
        "scipy": ver("scipy"),
        "git_rev": git_rev,
        "src_sha256": digest.hexdigest(),
        "loadavg_1m_start": os.getloadavg()[0],
        "seed": seed,
    }


class Runner:
    """Runs and checks the calls of one benchmark run."""

    def __init__(self, workload, seed, work):
        self.workload = workload
        self.seeds = input_seeds(seed)
        self.expected = expected_rows(workload.suite, workload.make_config(self.seeds[0]))
        self.work = work
        self.references = {}
        self.attempted = 0
        self.failures = []
        self.deadline = time.monotonic() + RUN_LIMIT_S

    def call(self, jobs, trace, flemvi_seed):
        """One checked call on the input of ``flemvi_seed``; returns the
        child's result dict or None."""
        self.attempted += 1
        tag = f"{self.attempted:03d}"
        out = os.path.join(self.work, tag)
        os.makedirs(out)
        config = os.path.join(self.work, f"config_{flemvi_seed}.json")
        if not os.path.exists(config):
            with open(config, "w") as fh:
                json.dump(self.workload.make_config(flemvi_seed), fh, indent=2)
        spec = {
            "src": os.path.join(ROOT, "src"), "config": config,
            "suite": self.workload.suite, "seed": flemvi_seed, "jobs": jobs,
            "out": out, "trace": bool(trace), "result": os.path.join(out, "result.json"),
        }
        spec_path = os.path.join(out, "spec.json")
        with open(spec_path, "w") as fh:
            json.dump(spec, fh)
        try:
            result = self._run(spec, spec_path, out)
        except Failure as exc:
            self.failures.append(f"call {tag} (seed={flemvi_seed}, jobs={jobs}, trace={trace}): {exc}")
            print(f"FAIL call {tag} seed={flemvi_seed} jobs={jobs} trace={trace}: {exc}", flush=True)
            return None
        finally:
            shutil.rmtree(out, ignore_errors=True)
        print(f"call {tag} seed={flemvi_seed} jobs={jobs} trace={trace} exit={result['exit_code']} "
              f"setup_s={result['setup_s']:.3f} wall_s={result['wall_s']:.3f}", flush=True)
        return result

    def _run(self, spec, spec_path, out):
        timeout = min(CHILD_TIMEOUT_S, self.deadline - time.monotonic())
        if timeout <= 0:
            raise Failure("no time left in the run")
        with open(os.path.join(out, "stderr.txt"), "w") as err:
            try:
                proc = subprocess.run(
                    [sys.executable, os.path.join(HERE, "child.py"), spec_path],
                    stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
                    cwd=ROOT, timeout=timeout)
            except subprocess.TimeoutExpired:
                raise Failure(f"timed out after {timeout:.0f} s")
        if proc.returncode != 0 or not os.path.exists(spec["result"]):
            with open(os.path.join(out, "stderr.txt")) as fh:
                tail = fh.read().strip().splitlines()[-1:]
            raise Failure(f"crashed with exit code {proc.returncode}: {tail}")
        with open(spec["result"]) as fh:
            result = json.load(fh)
        if result["exit_code"] not in (0, 1):
            raise Failure(f"flemvi verify exited with {result['exit_code']}")
        path = os.path.join(out, f"report_{self.workload.suite}.json")
        try:
            with open(path, "rb") as fh:
                blob = fh.read()
            payload = json.loads(blob)
            rows = [(r["name"], r["samples"]) for r in payload["reports"]]
            verdicts = [bool(r["passed"]) for r in payload["reports"]]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise Failure(f"missing or malformed report: {exc!r}")
        if rows != self.expected:
            raise Failure(f"report rows {rows} differ from the expected {self.expected}")
        if result["exit_code"] != (0 if payload.get("passed") else 1):
            raise Failure("exit code disagrees with the report's verdict")
        reference = self.references.setdefault(spec["seed"], blob)
        if blob != reference:
            raise Failure("report bytes differ from the run's first report on this input")
        if spec["trace"]:
            if result["span_problems"]:
                raise Failure(f"span problems: {result['span_problems'][:3]}")
            if result["leftover_patches"]:
                raise Failure(f"flemvi changed by tracing: {result['leftover_patches'][:3]}")
        result["rows_passed"] = sum(verdicts)
        result["rows_total"] = len(verdicts)
        return result

    def verdicts(self):
        """Verdict vector (P/F per report row) of each input with a report."""
        return {seed: "".join("P" if r["passed"] else "F" for r in json.loads(blob)["reports"])
                for seed, blob in self.references.items()}

    def keep_going(self, started, seconds, durations, min_rounds):
        """Start another round (one call, or a traced round of three) while
        the next one is expected to finish within ``seconds`` of
        ``started``, and until ``min_rounds`` are done."""
        if len(durations) < min_rounds:
            return time.monotonic() < self.deadline
        elapsed = time.monotonic() - started
        expected = statistics.median(durations) if durations else 0.0
        return elapsed + expected <= seconds


def measure_untraced(runner, seconds):
    """One call per input, so that every input of the run weighs the same
    whatever the number of calls; the reference call at the other ``--jobs``
    value on the first input checks the first timed call's bytes."""
    jobs = runner.workload.jobs
    other = 2 if jobs == 1 else 1
    runner.call(other, False, runner.seeds[0])
    samples, durations = [], []
    started = time.monotonic()
    for seed in runner.seeds:
        if not runner.keep_going(started, seconds, durations, MIN_SAMPLES):
            break
        t0 = time.monotonic()
        result = runner.call(jobs, False, seed)
        durations.append(time.monotonic() - t0)
        if result is not None:
            samples.append(result)
    if not samples:
        return None
    return {
        "wall_s": statistics.median(s["wall_s"] for s in samples),
        "setup_s": statistics.median(s["setup_s"] for s in samples),
        "peak_rss_mb": statistics.median(s["maxrss_kb"] / 1024.0 for s in samples),
    }, len(samples)


def measure_traced(runner, seconds):
    """Rounds of three calls on the first input; the two untraced calls give
    the ``--jobs`` speed-up and the base of the tracing overhead."""
    jobs = runner.workload.jobs
    other = 2 if jobs == 1 else 1
    plain, plain_other, traced, durations = [], [], [], []
    started = time.monotonic()
    seed = runner.seeds[0]
    while runner.keep_going(started, seconds, durations, 1):
        t0 = time.monotonic()
        results = [runner.call(jobs, False, seed), runner.call(other, False, seed),
                   runner.call(jobs, True, seed)]
        durations.append(time.monotonic() - t0)
        if None in results:
            continue
        plain.append(results[0])
        plain_other.append(results[1])
        traced.append(results[2])
    if not traced:
        return None

    med = statistics.median
    metrics = {name: med(t["layers"][name] for t in traced)
               for name in PER_LAYER if name in traced[0]["layers"]}
    wall = {jobs: med(p["wall_s"] for p in plain), other: med(p["wall_s"] for p in plain_other)}
    metrics["simulator.jobs_speedup"] = wall[1] / wall[2]
    metrics["verify.rows_passed"] = float(traced[0]["rows_passed"])
    metrics["verify.rows_total"] = float(traced[0]["rows_total"])
    metrics["proc.cpu_s"] = med(p["cpu_s"] for p in plain)
    metrics["tracing.overhead"] = med(t["wall_s"] for t in traced) / med(p["wall_s"] for p in plain) - 1.0
    return metrics, len(traced)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "flemvi", "cli.py")):
        print(f"error: no flemvi sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    env = environment(args.seed)
    print("env " + json.dumps(env), flush=True)

    work = os.path.join(ROOT, ".perfbench_work", f"{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        runner = Runner(WORKLOADS[args.workload], args.seed, work)
        measure = measure_traced if args.trace else measure_untraced
        measured = measure(runner, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(runner.failures)
    for line in runner.failures:
        print("failure: " + line)
    print(f"summary workload={args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={runner.attempted} failed={failed} "
          f"fail_share={failed / runner.attempted:.4f} "
          f"verdicts={','.join(f'{k}:{v}' for k, v in runner.verdicts().items())} "
          f"loadavg_1m_end={os.getloadavg()[0]}")
    if measured is None:
        print("error: no call succeeded", file=sys.stderr)
        return 1
    metrics, n = measured
    units = {name: spec[0] for name, spec in {**END_TO_END, **PER_LAYER}.items()}
    for name in sorted(metrics):
        print(f"metric {name} = {metrics[name]:.6g} {units[name]} (median of {n})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
