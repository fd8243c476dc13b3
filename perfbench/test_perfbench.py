"""Tests of the benchmark's own code: span bookkeeping, tracer invariants on
real (small) verify calls, expected report rows, and the refusal to run
without sources.

    python3 -m pytest -q perfbench
"""

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import layertrace  # noqa: E402
from flemvi.cli import main as flemvi_main  # noqa: E402
from workloads import WORKLOADS, expected_rows, input_seeds  # noqa: E402

M1 = {"name": "m1", "modes": [1], "terms": [[1.0, [1]]]}


def small_config(tmp_path, suite):
    config = {
        "domain": {"kind": "interval", "bounds": [0.0, math.pi]},
        "truncation": 8,
        "components": [{"weight": 0.6, "modes": {}}, {"weight": 0.4, "modes": {"2": 0.05}}],
        "kernel": "mixture_reweighted",
        "n_list": [4, 8],
        "replicas": 6,
        "dt": 0.005,
        "horizon": 0.2,
        "observables": [M1],
        "seed": 3,
        "output_dir": str(tmp_path / "out"),
    }
    if suite == "operator_limits":
        # the horizon doubles as the resolvent's beta; the quadrature runs to 12/beta
        config.update(horizon=4.0, dt=0.05)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return config, str(path)


def verify(config_path, suite, jobs, out, tracer=None):
    argv = ["verify", "--config", config_path, "--suite", suite, "--seed", "11",
            "--jobs", str(jobs), "--out", str(out)]
    with contextlib.redirect_stdout(io.StringIO()):
        if tracer is None:
            code = flemvi_main(argv)
        else:
            code = tracer.call("cli.main", flemvi_main, argv)
    with open(os.path.join(out, f"report_{suite}.json"), "rb") as fh:
        return code, fh.read()


def span(name, parent, start, end):
    s = layertrace.Span(name, parent)
    s.start, s.end = start, end
    return s


def thread_with(*spans):
    st = layertrace._ThreadState(1)
    st.spans = list(spans)
    return st


def test_self_time_subtracts_children():
    root = span("cli.main", None, 0.0, 10.0)
    a = span("simulator.step", root, 1.0, 4.0)
    b = span("simulator.detect_hits", a, 2.0, 3.0)
    c = span("measures.observe", root, 5.0, 6.0)
    assert layertrace.self_times([root, a, b, c]) == [6.0, 2.0, 1.0, 1.0]
    assert layertrace.check_spans([thread_with(root, a, b, c)]) == []


def test_check_spans_flags_a_child_outside_its_parent():
    root = span("cli.main", None, 0.0, 1.0)
    late = span("simulator.step", root, 0.5, 2.0)
    problems = layertrace.check_spans([thread_with(root, late)])
    assert any("outside its parent" in p for p in problems)
    assert any("negative self time" in p for p in problems)


def test_check_spans_flags_a_parent_on_another_thread():
    root = span("cli.main", None, 0.0, 1.0)
    child = span("simulator.replica", root, 0.2, 0.3)
    problems = layertrace.check_spans([thread_with(root), thread_with(child)])
    assert any("another thread" in p for p in problems)


def test_pmax_keeps_ten_samples_beyond_it():
    assert layertrace._pmax(list(range(100))) == 89
    assert layertrace._pmax([3.0, 1.0, 2.0]) == 3.0


@pytest.mark.parametrize("suite,jobs", [("convergence", 2), ("jumps", 2),
                                        ("operator_limits", 1)])
def test_traced_call_is_pure_and_consistent(tmp_path, suite, jobs):
    config, path = small_config(tmp_path, suite)
    _, plain = verify(path, suite, jobs, tmp_path / "plain")
    before = layertrace.snapshot()
    tracer = layertrace.Tracer().install()
    try:
        _, traced = verify(path, suite, jobs, tmp_path / "traced", tracer)
    finally:
        tracer.remove()
    assert layertrace.changed(before, layertrace.snapshot()) == []
    assert traced == plain

    threads = tracer.threads()
    assert layertrace.check_spans(threads) == []
    for st in threads:
        assert all(s >= 0.0 for s in layertrace.self_times(st.spans))
    if jobs > 1:
        assert len(threads) > 1
    layers = layertrace.summarize(threads)
    assert layers["kernels.accepted"] <= layers["kernels.proposals"]
    assert layers["kernels.accepted"] > 0
    assert layers["simulator.relocations"] <= layers["simulator.particle_steps"]
    assert layers["simulator.relocations"] <= layers["kernels.relocate.calls"]
    assert layers["simulator.replica.calls"] > 0
    main_thread = next(st for st in threads if st.spans and st.spans[0].name == "cli.main")
    root = main_thread.spans[0]
    assert math.isclose(math.fsum(layertrace.self_times(main_thread.spans)),
                        root.end - root.start, rel_tol=1e-9)


def test_tracer_restores_flemvi_when_the_call_raises(tmp_path):
    before = layertrace.snapshot()
    tracer = layertrace.Tracer().install()
    try:
        with pytest.raises(ZeroDivisionError):
            tracer.call("cli.main", lambda: 1 / 0)
    finally:
        tracer.remove()
    assert layertrace.changed(before, layertrace.snapshot()) == []


@pytest.mark.parametrize("suite", ["convergence", "jumps", "operator_limits"])
def test_expected_rows_match_a_real_report(tmp_path, suite):
    config, path = small_config(tmp_path, suite)
    _, blob = verify(path, suite, 1, tmp_path / "out")
    rows = [(r["name"], r["samples"]) for r in json.loads(blob)["reports"]]
    assert rows == expected_rows(suite, config)


def test_inputs_depend_only_on_the_seed():
    assert input_seeds(5) == input_seeds(5)
    assert not set(input_seeds(5)) & set(input_seeds(6))
    for w in WORKLOADS.values():
        assert w.make_config(5) == w.make_config(5)
        assert w.make_config(5)["seed"] == 5
        assert len(w.why) <= 200


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ladder", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
