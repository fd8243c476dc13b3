"""Batch front-end: parse a run config, execute simulation or verification
suites with seeded replicas, emit CSV/JSON artifacts.

Subcommands: simulate | verify | flow.  Flags: --config PATH, --seed U64,
--jobs N, --out DIR (environment overrides with the FLEMVI_ prefix, flags win
over the environment, which wins over the config file).  Exit codes: 0
success, 1 verification failures, 2 invalid config or usage, 3 I/O failure.
All artifacts embed the config hash and the effective seed; re-running a
command with the same inputs reproduces its outputs byte-identically.
"""

import argparse
import json
import math
import os
import sys

import numpy as np

from .geometry import interval, rectangle
from .kernels import (
    InitialLaw,
    KernelKind,
    RelocationKernel,
    _check_population,
    admissible_from_perturbation,
    sample_initial_configuration,
)
from .measures import CylinderFunction
from .simulator import (
    _step_count,
    config_hash,
    run,
    write_jump_log_csv,
    write_manifest,
    write_trajectory_csv,
)
from .spectral import SpectralBasis, survival_split
from .verify import (
    bonferroni_k,
    boundary_cutoff_diagnostic,
    convergence_experiment,
    exit_moment_check,
    identity_suite,
    jump_increment_checks,
    operator_limit_checks,
    render_table,
    reports_to_json,
    suite_passed,
)

SUITES = ("identities", "jumps", "convergence", "operator_limits", "all")


class ConfigError(ValueError):
    """Raised for schema violations; mapped to exit code 2."""


def _require(cond, msg):
    if not cond:
        raise ConfigError(msg)


def _int(value, what):
    """A JSON integer (booleans and floats are rejected, not truncated)."""
    _require(isinstance(value, int) and not isinstance(value, bool),
             f"{what} must be an integer, got {value!r}")
    return value


def _float(value, what):
    """A finite JSON number; booleans and strings are rejected, not coerced,
    and the magnitude test rejects nan, infinities and ints beyond float range."""
    _require(isinstance(value, (int, float)) and not isinstance(value, bool)
             and abs(value) <= sys.float_info.max,
             f"{what} must be a finite number, got {value!r}")
    return float(value)


def _check_keys(obj, allowed, where):
    _require(isinstance(obj, dict), f"{where} must be an object")
    unknown = set(obj) - set(allowed)
    _require(not unknown, f"unknown key(s) in {where}: {sorted(unknown)}")


class RunConfig:
    """Validated run configuration plus its canonical hash.

    The raw JSON object is kept verbatim for hashing, so the hash identifies
    the configuration file content independent of seed/jobs overrides.
    """

    _TOP_KEYS = (
        "domain", "truncation", "components", "kernel", "n_list", "replicas",
        "dt", "horizon", "observables", "seed", "output_dir", "record_stride",
    )

    def __init__(self, raw):
        _check_keys(raw, self._TOP_KEYS, "config")
        for key in ("domain", "truncation", "components", "kernel", "n_list",
                    "replicas", "dt", "horizon", "seed", "output_dir"):
            _require(key in raw, f"config is missing required key '{key}'")
        self.raw = raw
        self.sha256 = config_hash(raw)

        dom = raw["domain"]
        _check_keys(dom, ("kind", "bounds"), "domain")
        _require("kind" in dom and "bounds" in dom, "domain needs kind and bounds")
        if dom["kind"] == "interval":
            b = dom["bounds"]
            _require(isinstance(b, list) and len(b) == 2, "interval bounds must be [a, b]")
            lo, hi = (_float(v, "domain bounds") for v in b)
            _require(lo < hi, "interval bounds must be increasing")
            self.domain = interval(lo, hi)
        elif dom["kind"] == "rectangle":
            b = dom["bounds"]
            _require(
                isinstance(b, list) and len(b) == 2
                and all(isinstance(s, list) and len(s) == 2 for s in b),
                "rectangle bounds must be [[a1, b1], [a2, b2]]")
            (a1, b1), (a2, b2) = ([_float(v, "domain bounds") for v in s] for s in b)
            _require(a1 < b1 and a2 < b2, "rectangle bounds must be increasing per axis")
            self.domain = rectangle(a1, b1, a2, b2)
        else:
            raise ConfigError(f"unknown domain kind '{dom['kind']}'")

        self.truncation = _int(raw["truncation"], "truncation")
        _require(self.truncation >= 1, "truncation must be >= 1")

        comps = raw["components"]
        _require(isinstance(comps, list) and comps, "components must be a nonempty list")
        self.component_specs = []
        for i, comp in enumerate(comps):
            _check_keys(comp, ("weight", "modes", "comparison_c"), f"components[{i}]")
            weight = _float(comp.get("weight", 1.0), f"components[{i}].weight")
            _require(weight > 0, f"components[{i}].weight must be positive")
            modes = comp.get("modes", {})
            _require(isinstance(modes, dict), f"components[{i}].modes must be an object")
            higher = {}
            for key, val in modes.items():
                _require(isinstance(key, str) and key.isascii() and key.isdigit() and int(key) >= 2,
                         f"components[{i}].modes keys must be mode indices >= 2")
                higher[int(key)] = _float(val, f"components[{i}].modes values")
            c = comp.get("comparison_c")
            c = None if c is None else _float(c, f"components[{i}].comparison_c")
            self.component_specs.append((weight, higher, c))

        kinds = [kind.value for kind in KernelKind]
        _require(raw["kernel"] in kinds, f"kernel must be one of {kinds}, got '{raw['kernel']}'")
        self.kernel_kind = KernelKind(raw["kernel"])

        n_list = raw["n_list"]
        _require(isinstance(n_list, list) and n_list, "n_list must be a nonempty list")
        self.n_list = [_int(n, "n_list entries") for n in n_list]
        _require(all(n >= 1 for n in self.n_list), "n_list entries must be >= 1")
        _require(self.n_list == sorted(self.n_list) and len(set(self.n_list)) == len(self.n_list),
                 "n_list must be strictly increasing")

        self.replicas = _int(raw["replicas"], "replicas")
        _require(self.replicas >= 2, "replicas must be >= 2")
        self.dt = _float(raw["dt"], "dt")
        self.horizon = _float(raw["horizon"], "horizon")
        try:
            _step_count(self.horizon, self.dt)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        self.seed = _int(raw["seed"], "seed")
        _require(self.seed >= 0, "seed must be a nonnegative integer")
        self.output_dir = raw["output_dir"]
        _require(isinstance(self.output_dir, str) and self.output_dir,
                 "output_dir must be a nonempty string")
        self.record_stride = _int(raw.get("record_stride", 1), "record_stride")
        _require(self.record_stride >= 1, "record_stride must be >= 1")

        obs = raw.get("observables", [{"name": "mode1", "modes": [1], "terms": [[1.0, [1]]]}])
        _require(isinstance(obs, list) and obs, "observables must be a nonempty list")
        self.observable_specs = []
        for i, spec in enumerate(obs):
            _check_keys(spec, ("name", "modes", "terms"), f"observables[{i}]")
            modes = spec.get("modes")
            terms = spec.get("terms")
            _require(isinstance(modes, list) and modes, f"observables[{i}].modes must be a nonempty list")
            _require(isinstance(terms, list) and terms, f"observables[{i}].terms must be a nonempty list")
            clean_terms = []
            for term in terms:
                _require(isinstance(term, list) and len(term) == 2,
                         f"observables[{i}].terms entries must be [coef, [powers]]")
                coef, powers = term
                _require(isinstance(powers, list) and len(powers) == len(modes),
                         f"observables[{i}] powers must match the mode count")
                clean_terms.append(
                    (_float(coef, f"observables[{i}] coefficients"),
                     tuple(_int(p, f"observables[{i}] powers") for p in powers)))
            name = spec.get("name", f"obs{i}")
            _require(isinstance(name, str), f"observables[{i}].name must be a string")
            modes = tuple(_int(m, f"observables[{i}].modes entries") for m in modes)
            self.observable_specs.append((name, modes, clean_terms))
        for _name, modes, terms in self.observable_specs:
            _require(min(modes) >= 1, "observable mode indices must be >= 1")
            _require(max(modes) <= self.truncation,
                     "observable mode index beyond the basis truncation")
            _require(min(min(p) for _c, p in terms) >= 0, "observable powers must be >= 0")

    # -- builders ---------------------------------------------------------

    def build_basis(self):
        return SpectralBasis(self.domain, truncation_K=self.truncation)

    def build_law(self, basis):
        comps = []
        for weight, higher, c in self.component_specs:
            comps.append((weight, admissible_from_perturbation(basis, higher, c=c)))
        return InitialLaw(tuple(comps))

    def build_kernel(self, basis, law):
        kernel = RelocationKernel(self.kernel_kind, basis, law)
        _check_population(kernel, self.n_list[0])
        return kernel

    def build_observables(self):
        return [
            CylinderFunction.polynomial(modes, terms, name=name)
            for name, modes, terms in self.observable_specs
        ]


def load_config(path):
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    return RunConfig(raw)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_simulate(config, seed, out_dir):
    """One trajectory at n = n_list[0]; writes trajectory CSV, jump-log CSV,
    and a manifest JSON."""
    basis = config.build_basis()
    law = config.build_law(basis)
    kernel = config.build_kernel(basis, law)
    observables = config.build_observables()
    n = config.n_list[0]
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    result = run(sample_initial_configuration(law, n, rng), rng, config.horizon, config.dt,
                 kernel, observables, basis=basis, record_stride=config.record_stride)
    meta = {"config_sha256": config.sha256, "seed": seed}
    os.makedirs(out_dir, exist_ok=True)
    write_trajectory_csv(os.path.join(out_dir, "trajectory.csv"), result, meta=meta)
    write_jump_log_csv(os.path.join(out_dir, "jumps.csv"), result.events,
                       config.domain.dimension, meta=meta)
    write_manifest(os.path.join(out_dir, "manifest.json"), seed, config.raw)
    print(f"simulate: n={n} horizon={config.horizon:g} dt={config.dt:g} "
          f"rows={len(result.times)} jumps={len(result.events)} -> {out_dir}")
    return 0


def _suite_reports(config, suite, seed, jobs):
    basis = config.build_basis()
    law = config.build_law(basis)
    kernel = config.build_kernel(basis, law)
    observables = config.build_observables()
    n_top = config.n_list[-1]
    M = config.replicas
    reports = []

    if suite in ("identities", "all"):
        reports += identity_suite(basis, law, seed=seed)

    if suite in ("jumps", "all"):
        if kernel.kind is not KernelKind.MIXTURE_REWEIGHTED:
            raise ConfigError(
                "the jumps suite couples the relocation kernel to the initial "
                "law; set kernel = mixture_reweighted")
        k_b = bonferroni_k(4 * len(observables))
        subs = np.random.SeedSequence(seed).spawn(2 * len(observables) + 1)
        for i, f in enumerate(observables):
            reports.append(exit_moment_check(
                law, f, n_top, M, config.dt, subs[2 * i], jobs=jobs, k=k_b))
            reports += jump_increment_checks(
                law, f, n_top, M, config.dt, kernel, subs[2 * i + 1],
                jobs=jobs, k=k_b)
        reports += boundary_cutoff_diagnostic(
            law, config.n_list, M, config.dt, subs[-1], jobs=jobs)

    if suite in ("convergence", "all"):
        modes = tuple(k for k in (1, 2, 3, 4) if k <= basis.K)
        k_b = bonferroni_k(len(modes))
        reports += convergence_experiment(
            law, config.horizon, config.n_list, M, config.dt, kernel,
            np.random.SeedSequence(seed).spawn(1)[0], jobs=jobs, modes=modes, k=k_b)

    if suite in ("operator_limits", "all"):
        g = observables[0]
        one = CylinderFunction.constant(1.0)
        k_b = bonferroni_k(2 + len(config.n_list))
        subs = np.random.SeedSequence(seed).spawn(3)
        reports += operator_limit_checks(law, [
            ("semigroup", g, one, config.horizon, M, subs[0]),
            ("resolvent", one, one, config.horizon, max(4, min(M, 16)), subs[1]),
            ("resolvent", g, one, config.horizon, M, subs[2])],
            config.n_list, config.dt, kernel, jobs=jobs, k=k_b)

    return reports


def cmd_verify(config, suite, seed, jobs, out_dir):
    """Run one named suite (or all); writes report JSON, prints the table."""
    reports = _suite_reports(config, suite, seed, jobs)
    payload = reports_to_json(suite, reports, seed=seed, config_sha256=config.sha256)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"report_{suite}.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(render_table(reports))
    n_pass = sum(r.passed for r in reports)
    print(f"\nverify[{suite}]: {n_pass}/{len(reports)} passed -> {path}")
    return 0 if suite_passed(reports) else 1


def cmd_flow(config, t_list, seed, out_dir):
    """Limit-flow table: one block per mixture component, rows
    (component, t, survival mass, coefficients of the normalized state)."""
    basis = config.build_basis()
    law = config.build_law(basis)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "flow.csv")
    with open(path, "w", newline="") as fh:
        fh.write(f"# config_sha256={config.sha256} seed={seed}\n")
        cols = ["component", "t", "z"] + [f"c{k}" for k in range(1, basis.K + 1)]
        fh.write(",".join(cols) + "\n")
        for m, (_w, ad) in enumerate(law.components):
            for t in t_list:
                z, v = survival_split(ad.mu, float(t))
                row = [str(m), format(float(t), ".17g"), format(z, ".17g")]
                row += [format(c, ".17g") for c in v.coeffs]
                fh.write(",".join(row) + "\n")
    print(f"flow: {len(law.components)} component(s) x {len(t_list)} times -> {path}")
    return 0


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _env(name):
    return os.environ.get(f"FLEMVI_{name}")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="flemvi",
        description=("Particle-system simulator and verification toolkit: "
                     "diffusing particles with boundary-triggered relocation, "
                     "their measure-valued limit flow, and statistical checks "
                     "of the limit theorems."))
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=_env("CONFIG"),
                       help="path to the JSON run config (env FLEMVI_CONFIG)")
        p.add_argument("--seed", type=int, default=None,
                       help="master seed override (env FLEMVI_SEED)")
        p.add_argument("--jobs", type=int, default=None,
                       help="worker threads for per-replica work (env "
                            "FLEMVI_JOBS; default 1)")
        p.add_argument("--out", default=None,
                       help="output directory override (env FLEMVI_OUT)")

    p_sim = sub.add_parser("simulate", help="run one seeded trajectory, write CSVs")
    common(p_sim)

    p_ver = sub.add_parser("verify", help="run a verification suite")
    common(p_ver)
    p_ver.add_argument("--suite", default="all", choices=SUITES,
                       help="which suite to run")

    p_flow = sub.add_parser("flow", help="tabulate the limit flow's coefficients")
    common(p_flow)
    p_flow.add_argument("--times", default=None,
                        help="comma-separated times (default: 11 points on [0, horizon])")
    return parser


def _resolve(args):
    if not args.config:
        raise ConfigError("no config given (use --config or FLEMVI_CONFIG)")
    config = load_config(args.config)
    seed = args.seed
    if seed is None:
        env_seed = _env("SEED")
        seed = int(env_seed) if env_seed is not None else config.seed
    if seed < 0:
        raise ConfigError("seed must be a nonnegative integer")
    jobs = args.jobs
    if jobs is None:
        env_jobs = _env("JOBS")
        jobs = int(env_jobs) if env_jobs is not None else 1
    if jobs < 1:
        raise ConfigError("jobs must be >= 1")
    out_dir = args.out or _env("OUT") or config.output_dir
    return config, seed, jobs, out_dir


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        config, seed, jobs, out_dir = _resolve(args)
        if args.command == "simulate":
            return cmd_simulate(config, seed, out_dir)
        if args.command == "verify":
            return cmd_verify(config, args.suite, seed, jobs, out_dir)
        if args.command == "flow":
            if args.times is not None:
                try:
                    t_list = [float(s) for s in args.times.split(",") if s.strip()]
                except ValueError:
                    raise ConfigError("--times must be comma-separated numbers")
                if not t_list:
                    raise ConfigError("--times must name at least one time")
                if not all(math.isfinite(t) and t >= 0 for t in t_list):
                    raise ConfigError("--times must be finite and >= 0")
            else:
                t_list = list(np.linspace(0.0, config.horizon, 11))
            return cmd_flow(config, t_list, seed, out_dir)
        raise AssertionError(f"unhandled command {args.command}")
    except ValueError as exc:
        # ConfigError and parameter rejections from the library layers alike
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
