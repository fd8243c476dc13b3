import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from flemvi import kernels
from flemvi.cli import SUITES, ConfigError, RunConfig, load_config, main

PI = math.pi


def base_config(out_dir):
    return {
        "domain": {"kind": "interval", "bounds": [0.0, PI]},
        "truncation": 8,
        "components": [{"weight": 1.0, "modes": {}}],
        "kernel": "mixture_reweighted",
        "n_list": [4, 8],
        "replicas": 12,
        "dt": 0.002,
        "horizon": 0.1,
        "observables": [{"name": "m1", "modes": [1], "terms": [[1.0, [1]]]}],
        "seed": 42,
        "output_dir": str(out_dir),
        "record_stride": 10,
    }


@pytest.fixture
def cfg_file(tmp_path):
    def write(overrides=None, **kw):
        raw = base_config(tmp_path / "out")
        raw.update(overrides or {})
        raw.update(kw)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        return str(path)

    return write


# -- config validation ------------------------------------------------------------

def test_valid_config_builds(cfg_file):
    config = load_config(cfg_file())
    assert config.truncation == 8
    assert config.n_list == [4, 8]
    basis = config.build_basis()
    law = config.build_law(basis)
    kernel = config.build_kernel(basis, law)
    assert kernel.kind.name == "MIXTURE_REWEIGHTED"
    obs = config.build_observables()
    assert obs[0].name == "m1"
    assert len(config.sha256) == 64


@pytest.mark.parametrize(
    "overrides",
    [
        {"bogus": 1},
        {"domain": {"kind": "interval", "bounds": [0.0, PI], "extra": 2}},
        {"components": [{"weight": 1.0, "modes": {}, "oops": 3}]},
        {"observables": [{"name": "m1", "modes": [1], "terms": [[1.0, [1]]], "y": 4}]},
    ],
)
def test_unknown_keys_rejected_everywhere(cfg_file, overrides):
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(cfg_file(overrides))


@pytest.mark.parametrize("missing", ["domain", "kernel", "n_list", "seed", "dt"])
def test_missing_required_key(cfg_file, tmp_path, missing):
    raw = base_config(tmp_path / "out")
    del raw[missing]
    path = tmp_path / "cfg2.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ConfigError, match="missing required"):
        load_config(str(path))


@pytest.mark.parametrize(
    "overrides",
    [
        {"domain": {"kind": "triangle", "bounds": [0.0, 1.0]}},
        {"domain": {"kind": "interval", "bounds": [2.0, 1.0]}},
        {"kernel": "teleport"},
        {"n_list": [8, 4]},
        {"n_list": [4, 4]},
        {"n_list": []},
        {"replicas": 1},
        {"dt": 0.0},
        {"horizon": -1.0},
        {"seed": -5},
        {"record_stride": 0},
        {"components": []},
        {"components": [{"weight": -1.0, "modes": {}}]},
        {"components": [{"weight": 1.0, "modes": {"1": 0.1}}]},
        {"observables": [{"name": "m", "modes": [1], "terms": [[1.0, [1, 2]]]}]},
        {"observables": [{"name": "m", "modes": [99], "terms": [[1.0, [1]]]}]},
        {"truncation": 16.7},
        {"replicas": 2.9},
        {"n_list": [True, 5]},
        {"seed": True},
        {"dt": 0.3, "horizon": 0.1},
        {"horizon": 0.101},
        {"dt": "0.01"},
        {"horizon": True},
        {"domain": {"kind": "interval", "bounds": ["0.0", PI]}},
        {"observables": [{"name": "m", "modes": [1], "terms": [[True, [1]]]}]},
        {"output_dir": None},
        {"output_dir": 5},
        {"output_dir": ""},
        {"observables": [{"name": [1], "modes": [1], "terms": [[1.0, [1]]]}]},
        {"components": [{"weight": 1.0, "modes": {"\u0663": 0.05}}]},
        {"components": [{"weight": 1.0, "modes": {"\u00b2": 0.05}}]},
        {"observables": [{"name": "m", "modes": [0], "terms": [[1.0, [1]]]}]},
        {"observables": [{"name": "m", "modes": [1], "terms": [[1.0, [-1]]]}]},
    ],
)
def test_invalid_values_rejected(cfg_file, overrides):
    with pytest.raises((ConfigError, ValueError)):
        load_config(cfg_file(overrides))


@pytest.mark.parametrize("overrides,message", [
    ({"output_dir": None}, "output_dir must be a nonempty string"),
    ({"output_dir": 5}, "output_dir must be a nonempty string"),
    ({"observables": [{"name": [1], "modes": [1], "terms": [[1.0, [1]]]}]},
     "name must be a string"),
    # an Arabic-Indic three and a superscript two pass str.isdigit
    ({"components": [{"weight": 1.0, "modes": {"\u0663": 0.05}}]}, "mode indices >= 2"),
    ({"components": [{"weight": 1.0, "modes": {"\u00b2": 0.05}}]}, "mode indices >= 2"),
])
def test_formerly_coerced_values_exit_2(cfg_file, tmp_path, capsys, overrides, message):
    assert main(["simulate", "--config", cfg_file(overrides), "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", [["simulate"], ["flow"], ["verify", "--suite", "identities"],
                                     ["verify", "--suite", "convergence"]])
@pytest.mark.parametrize("observable,message", [
    ({"name": "m", "modes": [0], "terms": [[1.0, [1]]]}, "mode indices must be >= 1"),
    ({"name": "m", "modes": [1], "terms": [[1.0, [-1]]]}, "powers must be >= 0"),
])
def test_unevaluable_observables_exit_2_under_every_command(cfg_file, tmp_path, capsys,
                                                            command, observable, message):
    path = cfg_file({"observables": [observable]})
    assert main([*command, "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(f"error: observable {message}")


# -- config fuzz: a mutated valid config is rejected with a message or runs ---------

_FUZZ_PATHS = [
    ("domain",), ("domain", "kind"), ("domain", "bounds"), ("domain", "bounds", 1),
    ("truncation",), ("components",), ("components", 0), ("components", 0, "weight"),
    ("components", 0, "modes"), ("components", 0, "comparison_c"), ("kernel",),
    ("n_list",), ("n_list", 0), ("replicas",), ("dt",), ("horizon",), ("observables",),
    ("observables", 0), ("observables", 0, "name"), ("observables", 0, "modes"),
    ("observables", 0, "modes", 0), ("observables", 0, "terms"),
    ("observables", 0, "terms", 0, 0), ("observables", 0, "terms", 0, 1), ("seed",),
    ("output_dir",), ("record_stride",),
]
# small magnitudes keep every accepted config cheap to simulate
_FUZZ_VALUES = st.one_of(
    st.none(), st.booleans(), st.sampled_from([-1, 0, 1, 2, 3]),
    st.sampled_from([-0.5, 0.0, 1e-3, 0.05, 0.5, 2.5, math.nan, math.inf, -math.inf]),
    st.text(max_size=3), st.sampled_from(["interval", "rectangle", "ground_mode", "2"]),
    st.lists(st.sampled_from([-1, 0, 1, 2, 3, 0.5, "x", [1]]), max_size=3),
    st.dictionaries(st.text(max_size=2), st.sampled_from([0.05, -1, "a"]), max_size=2),
)
_FUZZ_MUTATION = st.tuples(st.sampled_from(["set", "delete", "add"]),
                           st.sampled_from(_FUZZ_PATHS), _FUZZ_VALUES)


def _mutate(raw, op, path, value):
    """Replace or delete the entry at ``path``, or add an unknown key to the
    object there; a no-op where earlier mutations removed the path."""
    node = raw
    try:
        for key in path[:-1]:
            node = node[key]
        if op == "set":
            node[path[-1]] = value
        elif op == "delete":
            del node[path[-1]]
        elif isinstance(node[path[-1]], dict):
            node[path[-1]]["unknown"] = value
    except (KeyError, IndexError, TypeError):
        pass


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutations=st.lists(_FUZZ_MUTATION, min_size=1, max_size=3))
def test_config_fuzz(tmp_path, capsys, mutations):
    raw = base_config(tmp_path / "out")
    for mutation in mutations:
        _mutate(raw, *mutation)
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(raw))
    try:
        config = load_config(str(path))
        basis = config.build_basis()
        config.build_kernel(basis, config.build_law(basis))
    except ValueError:  # ConfigError included
        pass
    code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "fuzz_out")])
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    assert code == 0 or err.startswith("error: ")


def test_config_not_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(str(path))


def test_config_missing_file():
    with pytest.raises(ConfigError, match="cannot read"):
        load_config("/nonexistent/cfg.json")


# -- exit codes ----------------------------------------------------------------------

def test_exit_2_on_bad_config(cfg_file, capsys):
    assert main(["simulate", "--config", cfg_file({"bogus": 1})]) == 2
    assert "unknown key" in capsys.readouterr().err


def test_exit_2_without_config(capsys):
    assert main(["simulate"]) == 2
    assert "config" in capsys.readouterr().err


def test_exit_2_on_unknown_suite(cfg_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--config", cfg_file(), "--suite", "nonsense"])
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err


def test_exit_2_survivor_kernel_single_particle(cfg_file, capsys):
    path = cfg_file({"kernel": "uniform_survivor", "n_list": [1]})
    assert main(["simulate", "--config", path]) == 2
    assert "fewer than two" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["simulate"], ["verify", "--suite", "convergence"]])
def test_exit_2_two_component_mixture_single_particle(cfg_file, capsys, argv):
    # the reweighted mixture of two components reads the other particles
    path = cfg_file({
        "components": [{"weight": 0.6, "modes": {}}, {"weight": 0.4, "modes": {"2": 0.05}}],
        "n_list": [1, 4], "replicas": 4, "dt": 0.01, "horizon": 0.5, "seed": 1})
    assert main([*argv, "--config", path]) == 2
    assert "fewer than two particles" in capsys.readouterr().err


def test_exit_3_on_unwritable_output(cfg_file, tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    assert main(["flow", "--config", cfg_file(), "--out", str(blocker)]) == 3
    assert "i/o error" in capsys.readouterr().err


@pytest.mark.parametrize("times", ["nan", "inf", "-0.5", "0,-0.5"])
def test_exit_2_on_bad_flow_times_before_writing(cfg_file, tmp_path, capsys, times):
    out = tmp_path / "flowout"
    assert main(["flow", "--config", cfg_file(), "--times", times, "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not (out / "flow.csv").exists()


def test_flow_accepts_negative_zero_time(cfg_file, tmp_path):
    out = tmp_path / "flowout"
    assert main(["flow", "--config", cfg_file(), "--times", "-0", "--out", str(out)]) == 0
    assert (out / "flow.csv").read_text().splitlines()[2].split(",")[1] == "-0"


# -- subcommands -----------------------------------------------------------------------

def test_simulate_artifacts(cfg_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg_file()]) == 0
    traj = (out / "trajectory.csv").read_text().splitlines()
    assert traj[0].startswith("#") and "seed=42" in traj[0]
    # horizon 0.1 at dt 0.002 and stride 10 -> 5 recorded steps + time 0
    assert len(traj) == 2 + 6
    jumps = (out / "jumps.csv").read_text().splitlines()
    assert jumps[1] == "time,particle,jump_off1,target1,distance"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 42
    config = load_config(cfg_file())
    assert manifest["config_sha256"] == config.sha256


def test_simulate_byte_identical_reruns(cfg_file, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", cfg_file(), "--out", str(a)]) == 0
    assert main(["simulate", "--config", cfg_file(), "--out", str(b)]) == 0
    assert (a / "trajectory.csv").read_bytes() == (b / "trajectory.csv").read_bytes()
    assert (a / "jumps.csv").read_bytes() == (b / "jumps.csv").read_bytes()


def test_flow_output(cfg_file, tmp_path):
    out = tmp_path / "flowout"
    assert main([
        "flow", "--config", cfg_file(), "--times", "0,0.5,1.0",
        "--out", str(out),
    ]) == 0
    lines = (out / "flow.csv").read_text().splitlines()
    assert lines[1].split(",")[:3] == ["component", "t", "z"]
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 3
    for row in rows:
        t = float(row[1])
        z = float(row[2])
        # stationary single component: survival mass decays at rate 1/2
        assert z == pytest.approx(math.exp(-0.5 * t), rel=1e-15)
        # 17-significant-digit round trip
        assert row[2] == format(z, ".17g")


def test_verify_identities_exit_0(cfg_file, tmp_path, capsys):
    out = tmp_path / "v"
    rc = main(["verify", "--config", cfg_file(), "--suite", "identities",
               "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "identity:series_reconstruction" in text
    payload = json.loads((out / "report_identities.json").read_text())
    assert payload["passed"] is True
    assert payload["suite"] == "identities"
    assert payload["seed"] == 42


def test_verify_jumps_reports_underpowered_at_ten_replicas(cfg_file, tmp_path):
    out = tmp_path / "under"
    path = cfg_file({"replicas": 10, "n_list": [4]})
    main(["verify", "--config", path, "--suite", "jumps", "--out", str(out)])
    payload = json.loads((out / "report_jumps.json").read_text())
    stat_rows = [r for r in payload["reports"] if "sigma" in r["rule"]]
    assert stat_rows
    assert all(r["underpowered"] for r in stat_rows)
    assert all("UNDERPOWERED" in r["note"] for r in stat_rows)


def test_verify_jumps_byte_identical_across_jobs(cfg_file, tmp_path):
    a, b = tmp_path / "ja", tmp_path / "jb"
    path = cfg_file()
    main(["verify", "--config", path, "--suite", "jumps", "--jobs", "1",
          "--out", str(a)])
    main(["verify", "--config", path, "--suite", "jumps", "--jobs", "3",
          "--out", str(b)])
    assert (a / "report_jumps.json").read_bytes() == (b / "report_jumps.json").read_bytes()


def test_convergence_report_keeps_its_bytes_when_every_choice_is_exact(tmp_path, monkeypatch):
    """With the certified choice's bound infinite, every component choice of the
    two-component ladder config (the benchmark's ``ladder`` workload) runs the
    exact weights, and its convergence report keeps every byte."""
    ladder = {"domain": {"kind": "interval", "bounds": [0.0, PI]}, "truncation": 16,
              "components": [{"weight": 0.6, "modes": {}}, {"weight": 0.4, "modes": {"2": 0.05}}],
              "kernel": "mixture_reweighted", "n_list": [50, 200, 800], "replicas": 16,
              "dt": 1e-3, "horizon": 0.03, "observables": [{"name": "m1", "modes": [1],
                                                            "terms": [[1.0, [1]]]}],
              "seed": 64, "output_dir": "out"}
    path = tmp_path / "ladder.json"
    path.write_text(json.dumps(ladder))
    assert main(["verify", "--config", str(path), "--suite", "convergence",
                 "--out", str(tmp_path / "certified")]) in (0, 1)
    exact, choice_cdf, weights = [], kernels._choice_cdf, kernels._mixture_log_weights
    monkeypatch.setattr(kernels, "_choice_cdf", lambda law, terms, i: (
        choice_cdf(law, terms, i)[0], np.full(len(i), np.inf)))
    monkeypatch.setattr(kernels, "_mixture_log_weights",
                        lambda *args: exact.append(1) or weights(*args))
    assert main(["verify", "--config", str(path), "--suite", "convergence",
                 "--out", str(tmp_path / "exact")]) in (0, 1)
    assert len(exact) > 100
    name = "report_convergence.json"
    assert (tmp_path / "certified" / name).read_bytes() == (tmp_path / "exact" / name).read_bytes()


@pytest.mark.parametrize("suite", ["operator_limits", "convergence"])
def test_verify_stacked_suites_byte_identical_across_jobs(cfg_file, tmp_path, suite):
    # horizon 1 keeps the resolvent at 12/beta/dt = 1200 steps
    path = cfg_file({"replicas": 4, "dt": 0.01, "horizon": 1.0})
    for jobs in ("1", "2"):
        main(["verify", "--config", path, "--suite", suite, "--jobs", jobs,
              "--out", str(tmp_path / jobs)])
    name = f"report_{suite}.json"
    assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()


def test_verify_all_rows_equal_standalone_suites(cfg_file, tmp_path):
    # each suite draws from its own stream of the seed, so its rows do not
    # depend on which other suites ran in the same call
    path = cfg_file({"replicas": 4, "dt": 0.01, "horizon": 1.0})
    rows = {}
    for suite in SUITES:
        out = tmp_path / suite
        main(["verify", "--config", path, "--suite", suite, "--jobs", "1",
              "--out", str(out)])
        rows[suite] = json.loads((out / f"report_{suite}.json").read_text())["reports"]
    assert rows.pop("all") == [row for suite_rows in rows.values() for row in suite_rows]


def test_verify_jumps_requires_coupled_kernel(cfg_file, capsys):
    path = cfg_file({"kernel": "ground_mode"})
    assert main(["verify", "--config", path, "--suite", "jumps"]) == 2
    assert "mixture_reweighted" in capsys.readouterr().err


# -- env overrides ------------------------------------------------------------------------

def test_env_seed_and_flag_precedence(cfg_file, tmp_path, monkeypatch):
    out = tmp_path / "env"
    path = cfg_file()
    monkeypatch.setenv("FLEMVI_SEED", "7")
    main(["flow", "--config", path, "--times", "0", "--out", str(out)])
    assert "seed=7" in (out / "flow.csv").read_text().splitlines()[0]
    main(["flow", "--config", path, "--times", "0", "--seed", "9",
          "--out", str(out)])
    assert "seed=9" in (out / "flow.csv").read_text().splitlines()[0]


def test_env_config(cfg_file, tmp_path, monkeypatch):
    out = tmp_path / "envcfg"
    monkeypatch.setenv("FLEMVI_CONFIG", cfg_file())
    assert main(["flow", "--times", "0", "--out", str(out)]) == 0


def test_env_out(cfg_file, tmp_path, monkeypatch):
    out = tmp_path / "envout"
    monkeypatch.setenv("FLEMVI_OUT", str(out))
    assert main(["flow", "--config", cfg_file(), "--times", "0"]) == 0
    assert (out / "flow.csv").exists()
