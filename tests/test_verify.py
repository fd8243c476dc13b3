import json
import math

import numpy as np
import pytest

from flemvi import simulator
from flemvi.cli import RunConfig, _suite_reports
from flemvi.kernels import (InitialLaw, RelocationKernel, admissible_from_perturbation,
                            sample_curvature_weighted, sample_initial_configuration,
                            sample_relocation)
from flemvi.measures import (CylinderFunction, EmpiricalMeasure, boundary_glued_metric,
                             cylinder_value, cylinder_value_many)
from flemvi.simulator import advance_steps, first_exit_batch, mean_and_stderr, run_replicas
from flemvi.spectral import _axis_rule, diffusion_part, flow, replenishment_part
from flemvi.verify import (
    _ALPHA,
    _BATCH,
    DEFAULT_K_SIGMA,
    TestReport,
    _jump_bound,
    _ndtri_tail,
    _run_ladder,
    bonferroni_k,
    boundary_cutoff_diagnostic,
    convergence_experiment,
    deterministic_report,
    diagnostic_report,
    exit_moment_check,
    identity_suite,
    jump_increment_checks,
    operator_limit_checks,
    render_table,
    reports_to_json,
    resolvent_target,
    standard_density_set,
    statistical_report,
    suite_passed,
    trend_report,
)


# -- report helpers -------------------------------------------------------------

def test_bonferroni_k():
    from scipy import stats

    alpha = 2.0 * stats.norm.sf(3.0)
    for n in range(1, 65):
        assert bonferroni_k(n) == float(stats.norm.isf(alpha / (2.0 * n)))
    assert bonferroni_k(1) == pytest.approx(3.0, abs=1e-12)
    ks = [bonferroni_k(n) for n in (1, 2, 4, 8)]
    assert all(ks[i] < ks[i + 1] for i in range(3))
    with pytest.raises(ValueError):
        bonferroni_k(0)


def test_normal_tail_ports_match_scipy():
    # bonferroni_k keeps scipy's bits without importing it; scipy is the oracle
    from scipy.special import ndtr, ndtri

    assert _ALPHA == 2.0 * ndtr(-DEFAULT_K_SIGMA)
    # the tail branch holds for exp(-32) < y <= exp(-2); below it cephes
    # switches coefficients, which bonferroni_k's 1e10 cap never reaches
    ys = np.exp(np.random.default_rng(7).uniform(-32.0, -2.0, 200_000))
    ys = np.append(ys, [math.exp(-2.0), math.exp(-32.0) * (1 + 1e-15)])
    differ = [y for y in ys if _ndtri_tail(y) != ndtri(y)]
    assert not differ, differ[:5]
    assert bonferroni_k(10**10) == float(-ndtri(_ALPHA / 2e10))
    with pytest.raises(ValueError):
        bonferroni_k(10**10 + 1)


def test_statistical_report_pass_fail():
    ok = statistical_report("t", lhs=1.001, stderr=0.001, rhs=1.0,
                            samples=500, runtime=0.0)
    assert ok.passed and not ok.underpowered
    bad = statistical_report("t", lhs=1.02, stderr=0.001, rhs=1.0,
                             samples=500, runtime=0.0)
    assert not bad.passed


def test_statistical_report_underpowered_small_sample():
    r = statistical_report("t", lhs=1.0, stderr=0.001, rhs=1.0,
                           samples=10, runtime=0.0)
    assert r.underpowered
    assert "UNDERPOWERED" in r.note


def test_statistical_report_underpowered_wide_band():
    r = statistical_report("t", lhs=1.0, stderr=10.0, rhs=1.0,
                           samples=500, runtime=0.0)
    assert r.underpowered


def test_statistical_report_zero_variance_floor():
    r = statistical_report("t", lhs=0.5, stderr=0.0, rhs=0.5,
                           samples=500, runtime=0.0)
    assert r.tolerance == 1e-9
    assert r.passed


def test_trend_report_counts_sigma_inversions():
    good = trend_report("t", [5.0, 3.0, 1.0], [0.1, 0.1, 0.1], 0.0, 30)
    assert good.passed and good.lhs == 0
    one = trend_report("t", [5.0, 6.0, 1.0], [0.1, 0.1, 0.1], 0.0, 30)
    assert one.passed and one.lhs == 1
    two = trend_report("t", [1.0, 3.0, 5.0], [0.1, 0.1, 0.1], 0.0, 30)
    assert not two.passed and two.lhs == 2
    # rises inside the shared one-sigma noise do not count
    noisy = trend_report("t", [1.0, 1.05, 1.1], [0.5, 0.5, 0.5], 0.0, 30)
    assert noisy.passed and noisy.lhs == 0


def test_diagnostic_report_always_passes():
    r = diagnostic_report("d", lhs=123.0, stderr=9.0, runtime=0.0, samples=3)
    assert r.passed
    assert math.isnan(r.rhs)


def test_suite_passed():
    ok = deterministic_report("a", 1.0, 1.0, 1e-9, 0.0)
    bad = deterministic_report("b", 1.0, 2.0, 1e-9, 0.0)
    assert suite_passed([ok])
    assert not suite_passed([ok, bad])


def test_report_json_omits_runtime():
    r = statistical_report("t", 1.0, 0.1, 1.0, 200, runtime=3.14)
    d = r.to_dict()
    assert "runtime" not in d
    payload = reports_to_json("demo", [r], seed=5, config_sha256="ab")
    assert payload["seed"] == 5
    assert payload["config_sha256"] == "ab"
    assert payload["passed"]
    json.dumps(payload)  # serializable


def test_render_table_mentions_each_report():
    rs = [
        deterministic_report("alpha_check", 1.0, 1.0, 1e-9, 0.01),
        diagnostic_report("beta_diag", 2.0, 0.1, 0.01, 4, note="context"),
    ]
    text = render_table(rs)
    assert "alpha_check" in text
    assert "beta_diag" in text
    assert "context" in text


# -- identity suite ----------------------------------------------------------------

def test_standard_density_set(basis_1d):
    dens = standard_density_set(basis_1d)
    assert len(dens) >= 5
    for ad in dens:
        assert ad.mu.mass() == pytest.approx(1.0, abs=1e-10)


def test_identity_suite_all_green(basis_1d):
    reports = identity_suite(basis_1d)
    assert suite_passed(reports)
    names = {r.name for r in reports}
    assert "identity:series_reconstruction" in names
    assert "identity:stationary_decay_rate" in names
    assert "identity:curvature_mass_two_routes" in names
    assert "identity:flow_semigroup_property" in names
    assert "generator:flow_derivative_fd_ratio" in names
    fd = next(r for r in reports if r.name == "generator:flow_derivative_fd_ratio")
    assert fd.note == "max |err(1e-3)/err(1e-4) - 100| over pairs"
    assert "generator:discrete_matches_lifted_laplacian" in names


# -- statistical suites at smoke scale ------------------------------------------------

def test_exit_moment_constant_is_exact(stationary_law):
    one = CylinderFunction.constant(1.0)
    r = exit_moment_check(stationary_law, one, n=4, M=8, dt=0.002, seed=1)
    assert r.lhs == pytest.approx(0.5, abs=1e-12)
    assert r.stderr == pytest.approx(0.0, abs=1e-15)
    assert r.passed


def test_jump_increments_require_coupled_kernel(stationary_law):
    f = CylinderFunction.coordinate(1)
    with pytest.raises(ValueError):
        jump_increment_checks(
            stationary_law, f, 4, 8, 0.002,
            RelocationKernel.uniform_survivor(), seed=1,
        )


def test_jump_increment_sum_structure(stationary_law):
    f = CylinderFunction.coordinate(1)
    kernel = RelocationKernel.mixture_reweighted(stationary_law)
    reports = jump_increment_checks(stationary_law, f, 6, 48, 0.002, kernel, seed=2)
    names = [r.name for r in reports]
    assert names[0].startswith("jump_replenishment")
    assert names[1].startswith("jump_diffusion")
    assert names[2].startswith("jump_increment_sum")
    # the two targets cancel exactly in the sum row
    assert reports[2].rhs == pytest.approx(0.0, abs=1e-12)
    assert reports[0].rhs == pytest.approx(-reports[1].rhs, abs=1e-12)


def test_jump_rows_carry_no_step_bias(stationary_law):
    """The jump rows read the exit configuration at the exit time.  Read at the end of
    the step in which an atom hit, as a stepped first exit reads it, the diffusion row
    is biased by about -0.078 (n - 1) dt: -6.7 sigma at these sizes, whose dt is twice
    acceptance 5's so that 6,000 rows resolve it."""
    f = CylinderFunction.coordinate(1)
    kernel = RelocationKernel.mixture_reweighted(stationary_law)
    reports = jump_increment_checks(stationary_law, f, 200, 6000, 2e-3, kernel, seed=20261301)
    for r in reports:
        assert abs(r.lhs - r.rhs) <= 3.0 * r.stderr, r.name


def test_boundary_cutoff_diagnostic_never_asserts(stationary_law):
    reports = boundary_cutoff_diagnostic(stationary_law, [3, 5], 8, 0.002, seed=3)
    assert all(r.passed for r in reports)
    assert all(math.isnan(r.rhs) for r in reports)


# -- the stacked exit-side estimators against per-configuration references ---------

def _ref_pairings(f, positions, mask, basis):
    """Scalar pairings of one configuration, boundary atoms summing as zero
    (the formula of the scalar ``pair`` before it became a ``pair_many`` row)."""
    emp = EmpiricalMeasure(basis.domain, positions, mask)
    interior = emp.interior_positions
    return np.array([math.fsum(basis.eigenfunction(k, interior)) / emp.n if len(interior)
                     else 0.0 for k in f.mode_indices])


def _ref_value(f, positions, mask, basis):
    return float(f.phi(_ref_pairings(f, positions, mask, basis)))


def _ref_batch_sizes(M):
    full, rem = divmod(M, _BATCH)
    return [_BATCH] * full + ([rem] if rem else [])


def _ref_exit_side_batch(law, n, B, dt, rng):
    """One exit-side batch, drawn as the estimators draw it: B curvature-weighted
    start configurations with their masses in one call, then their first exits."""
    starts, masses = sample_curvature_weighted(law, n, B, rng)
    finals, hit_index, _taus = first_exit_batch(law.basis.domain, starts, dt, rng)
    return starts, masses, finals, hit_index


def _one_hot(n, i):
    mask = np.zeros(n, dtype=bool)
    mask[i] = True
    return mask


def _ref_exit_moment_check(law, f, n, M, dt, seed, k=3.0):
    sizes = _ref_batch_sizes(M)

    def worker(rng, b):
        _starts, masses, finals, hit_index = _ref_exit_side_batch(law, n, sizes[b], dt, rng)
        return [masses[i] / n * _ref_value(f, finals[i], _one_hot(n, hit_index[i]), law.basis)
                for i in range(sizes[b])]

    lhs, stderr = mean_and_stderr(np.concatenate(run_replicas(len(sizes), seed, worker)))
    rhs = math.fsum(w * cylinder_value(f, ad.mu) * ad.curvature_mass for w, ad in law.components)
    return [statistical_report(f"exit_moment[{f.name}|n={n}]", lhs, stderr, rhs, M, 0.0, k=k)]


def _ref_jump_increment_checks(law, f, n, M, dt, kernel, seed, k=3.0):
    basis, domain = law.basis, law.basis.domain
    sizes = _ref_batch_sizes(M)

    def worker(rng, b):
        starts, masses, finals, hit_index = _ref_exit_side_batch(law, n, sizes[b], dt, rng)
        # a law that reads the other atoms relocates each configuration on its own stream
        streams = rng.spawn(sizes[b]) if kernel.reads_others else [rng] * sizes[b]
        out = np.empty((sizes[b], 2))
        for i in range(sizes[b]):
            hit, mask = hit_index[i], _one_hot(n, hit_index[i])
            fx = _ref_value(f, starts[i], None, basis)
            fy = _ref_value(f, finals[i], mask, basis)
            target = sample_relocation(kernel, finals[i][None], [hit], [streams[i]])[0]
            z_pos = finals[i].copy()
            z_pos[hit] = target
            fz = _ref_value(f, z_pos, None, basis)
            r = boundary_glued_metric(domain, finals[i][hit], target)
            grad_y = np.abs(f.grad(_ref_pairings(f, finals[i], mask, basis)))
            grad_z = np.abs(f.grad(_ref_pairings(f, z_pos, None, basis)))
            bound = 2.0 * float(np.maximum(grad_y, grad_z).sum()) \
                * _jump_bound(f, basis, r) + 1e-12
            assert n * abs(fz - fy) <= bound
            out[i] = masses[i] * (fz - fy), masses[i] * (fy - fx)
        return out

    vals = np.concatenate(run_replicas(len(sizes), seed, worker))
    rhs_repl = math.fsum(w * replenishment_part(f, ad.mu) for w, ad in law.components)
    rhs_diff = math.fsum(w * diffusion_part(f, ad.mu) for w, ad in law.components)
    parts = (("replenishment", vals[:, 0], rhs_repl, None),
             ("diffusion", vals[:, 1], rhs_diff, None),
             ("increment_sum", vals[:, 0] + vals[:, 1], rhs_repl + rhs_diff, abs(rhs_diff)))
    return [statistical_report(f"jump_{part}[{f.name}|n={n}]", *mean_and_stderr(v), rhs, M,
                               0.0, k=k, scale_hint=hint) for part, v, rhs, hint in parts]


def _ref_boundary_cutoff_diagnostic(law, n_list, M, dt, seed, cap=10.0):
    domain = law.basis.domain
    sizes = _ref_batch_sizes(M)

    def estimate(n, sub):
        def worker(rng, b):
            _starts, masses, finals, hit_index = _ref_exit_side_batch(law, n, sizes[b], dt, rng)
            vals = np.empty(sizes[b])
            for i in range(sizes[b]):
                dists = domain.dist_to_boundary_many(finals[i])
                dists[hit_index[i]] = 0.0
                s = np.minimum(np.where(dists > 0.0, 1.0 / np.maximum(dists, 1e-300), cap),
                               cap).mean()
                vals[i] = masses[i] / n * math.exp(-s * s)
            return vals

        return mean_and_stderr(np.concatenate(run_replicas(len(sizes), sub, worker)))

    stats, _runtimes = _run_ladder(n_list, [seed], estimate)
    return [diagnostic_report(f"boundary_cutoff[n={n}]", lhs, stderr, 0.0, M,
                              note="hard-cutoff analogue is identically 0 at every n")
            for n, (lhs, stderr) in zip(n_list, stats)]


@pytest.fixture(scope="module")
def rectangle_law(basis_2d):
    return InitialLaw(((0.7, admissible_from_perturbation(basis_2d, {})),
                       (0.3, admissible_from_perturbation(basis_2d, {2: 0.05}))))


@pytest.mark.parametrize("where", ["interval", "rectangle", "interval_single", "rectangle_single",
                                   "rectangle_c25"])
def test_stacked_exit_side_estimators_equal_per_configuration_loops(
        perturbed_law, rectangle_law, stationary_law, basis_2d, where):
    # the single-component laws draw each batch's relocations as blocks; with c
    # pinned at 25 a row accepts none of its 64 proposals w.p. 0.23, so almost
    # every block falls back to one-point draws
    law = {"interval": lambda: perturbed_law, "rectangle": lambda: rectangle_law,
           "interval_single": lambda: stationary_law,
           "rectangle_single": lambda: InitialLaw.single(
               admissible_from_perturbation(basis_2d, {2: 0.05})),
           "rectangle_c25": lambda: InitialLaw.single(
               admissible_from_perturbation(basis_2d, {}, c=25.0))}[where]()
    kernel = RelocationKernel.mixture_reweighted(law)
    f = CylinderFunction.polynomial((1, 2), [(1.0, (2, 0)), (0.5, (1, 1)), (-0.3, (0, 1))])
    n, M, dt = 5, _BATCH + 13, 0.004  # a full batch and a partial one
    pairs = [
        ([exit_moment_check(law, f, n, M, dt, 7, jobs=2)],
         _ref_exit_moment_check(law, f, n, M, dt, 7)),
        (jump_increment_checks(law, f, n, M, dt, kernel, 8),
         _ref_jump_increment_checks(law, f, n, M, dt, kernel, 8)),
        (boundary_cutoff_diagnostic(law, [1, 4], M, dt, 9),
         _ref_boundary_cutoff_diagnostic(law, [1, 4], M, dt, 9)),
    ]
    for got, want in pairs:
        assert [r.to_dict() for r in got] == [r.to_dict() for r in want]


def test_convergence_experiment_validates_inputs(stationary_law):
    kernel = RelocationKernel.mixture_reweighted(stationary_law)
    with pytest.raises(ValueError):
        convergence_experiment(stationary_law, 0.1, [8, 4], 8, 0.002, kernel, 1)
    with pytest.raises(ValueError):
        convergence_experiment(
            stationary_law, 0.1, [1, 4], 8, 0.002,
            RelocationKernel.uniform_survivor(), 1,
        )


def test_operator_limit_check_validates_inputs(stationary_law):
    g = CylinderFunction.coordinate(1)
    one = CylinderFunction.constant(1.0)
    kernel = RelocationKernel.mixture_reweighted(stationary_law)
    with pytest.raises(ValueError):
        operator_limit_checks(stationary_law, [("nonsense", g, one, 0.1, 8, 1)], [4], 0.002,
                              kernel)
    with pytest.raises(ValueError):
        # resolvent weighting by a non-constant start observable is unsupported
        operator_limit_checks(stationary_law, [("resolvent", g, g, 1.0, 8, 1)], [4], 0.002,
                              kernel)


def test_resolvent_target_constant(stationary_law):
    one = CylinderFunction.constant(1.0)
    for beta in (0.5, 2.0):
        assert resolvent_target(stationary_law, one, beta) == pytest.approx(
            1.0 / beta, rel=1e-9
        )


def test_resolvent_target_matches_quad(perturbed_law, basis_2d):
    from scipy import integrate

    def quad_target(law, g, beta):  # the adaptive-quadrature oracle the rule replaced
        T = 40.0 / beta

        def total(mu):
            val, _err = integrate.quad(
                lambda s: math.exp(-beta * s) * cylinder_value(g, flow(mu, s)),
                0.0, T, limit=200, epsabs=1e-13, epsrel=1e-12)
            return val + math.exp(-beta * T) / beta * cylinder_value(g, flow(mu, T))

        return math.fsum(w * total(ad.mu) for w, ad in law.components)

    law_2d = InitialLaw(((0.7, admissible_from_perturbation(basis_2d, {})),
                         (0.3, admissible_from_perturbation(basis_2d, {2: 0.05, 3: 0.03}))))
    observables = [CylinderFunction.coordinate(1),
                   CylinderFunction.polynomial((1, 2), [(1.0, (1, 1))])]
    for law in (perturbed_law, law_2d):
        for g in observables:
            for beta in (0.5, 2.0, 5.0):
                assert abs(resolvent_target(law, g, beta) - quad_target(law, g, beta)) <= 1e-12
    for beta in (0.5, 2.0, 5.0):  # a constant's target is exact
        assert resolvent_target(law_2d, CylinderFunction.constant(3.0), beta) == 3.0 / beta


def test_resolvent_target_equals_the_per_node_flow_loop(perturbed_law, basis_2d):
    def loop_target(law, g, beta):  # one flow measure per node, as the table replaced
        T = 40.0 / beta
        nodes, weights = _axis_rule(0.0, T)

        def total(mu):
            vals = [math.exp(-beta * s) * cylinder_value(g, flow(mu, s)) for s in nodes]
            return (math.fsum(weights * vals)
                    + math.exp(-beta * T) / beta * cylinder_value(g, flow(mu, T)))

        return math.fsum(w * total(ad.mu) for w, ad in law.components)

    law_2d = InitialLaw(((0.7, admissible_from_perturbation(basis_2d, {})),
                         (0.3, admissible_from_perturbation(basis_2d, {2: 0.05, 3: 0.03}))))
    observables = [CylinderFunction.coordinate(2),
                   CylinderFunction.polynomial((1, 2), [(1.0, (1, 1)), (-0.5, (2, 0))])]
    for law in (perturbed_law, law_2d):
        for g in observables:
            for beta in (0.5, 2.0, 5.0):
                assert resolvent_target(law, g, beta) == loop_target(law, g, beta)
    # at beta = 0.1 the 2-D flow's mass underflows to 0 before 40/beta, as flow rejects
    with pytest.raises(ValueError, match="evolved mass 0.0 is not positive"):
        resolvent_target(law_2d, observables[0], 0.1)


def test_resolvent_constant_rows_exact_at_every_n(stationary_law):
    one = CylinderFunction.constant(1.0)
    kernel = RelocationKernel.mixture_reweighted(stationary_law)
    reports = operator_limit_checks(
        stationary_law, [("resolvent", one, one, 2.0, 4, 5)], [2, 4], 0.01, kernel)
    rows = [r for r in reports if r.name.startswith("resolvent[") and "|n=" in r.name]
    assert len(rows) == 2
    for r in rows:
        assert r.lhs == pytest.approx(0.5, abs=1e-12)
        assert r.passed


# -- the operator_limits suite: one stack per n against one estimator at a time -------

def _operator_config(horizon, dt, replicas):
    return RunConfig({
        "domain": {"kind": "interval", "bounds": [0.0, math.pi]},
        "truncation": 8,
        "components": [{"weight": 0.6, "modes": {}}, {"weight": 0.4, "modes": {"2": 0.05}}],
        "kernel": "mixture_reweighted",
        "n_list": [2, 5],
        "replicas": replicas,
        "dt": dt,
        "horizon": horizon,
        "observables": [{"name": "m1", "modes": [1], "terms": [[1.0, [1]]]}],
        "seed": 0,
        "output_dir": "out",
    })


def _ref_operator_estimate(law, mode, g, psi, x, n, M, dt, kernel, seed):
    """(mean, stderr) of one semigroup or resolvent estimate alone: its M
    starts through run_replicas, then advance_steps on their own stack."""
    basis = law.basis
    drawn = run_replicas(M, seed, lambda rng, _m: (
        rng, sample_initial_configuration(law, n, rng)))
    rngs, pos = [rng for rng, _ in drawn], np.stack([p for _, p in drawn])
    if mode == "semigroup":
        weight = cylinder_value_many(psi, pos, basis)
        advance_steps(basis.domain, pos, int(round(x / dt)), dt, kernel, rngs)
        return mean_and_stderr(cylinder_value_many(g, pos, basis) * weight)
    n_steps = int(math.ceil(12.0 / x / dt))
    edges = np.exp(-x * dt * np.arange(n_steps + 1))
    weights = np.append((edges[:-1] - edges[1:]) / x, edges[-1] / x)
    vals = [cylinder_value_many(g, pos, basis)]
    advance_steps(basis.domain, pos, n_steps, dt, kernel, rngs,
                  on_step=lambda *_: vals.append(cylinder_value_many(g, pos, basis)))
    return mean_and_stderr([math.fsum(v * weights) for v in np.array(vals).T])


@pytest.mark.parametrize("horizon, dt, replicas", [
    (2.0, 0.05, 4),  # horizon < sqrt(12): the semigroup finishes first
    (4.0, 0.02, 4),  # horizon > sqrt(12): the resolvents finish first
    (4.0, 0.02, 20),  # the constant's resolvent runs 16 replicas, the others 20
])
def test_operator_limits_suite_equals_one_estimator_at_a_time(monkeypatch, horizon, dt, replicas):
    config = _operator_config(horizon, dt, replicas)
    basis = config.build_basis()
    law = config.build_law(basis)
    kernel = config.build_kernel(basis, law)
    g, one = config.build_observables()[0], CylinderFunction.constant(1.0)
    n_list, seed, k = config.n_list, 13, bonferroni_k(2 + len(config.n_list))

    calls = []
    step = simulator._step_inplace
    monkeypatch.setattr(simulator, "_step_inplace", lambda *a: calls.append(1) or step(*a))
    suite = _suite_reports(config, "operator_limits", seed, jobs=2)
    steps = (round(horizon / dt), math.ceil(12.0 / horizon / dt))
    assert len(calls) == len(n_list) * max(steps)  # one stacked step serves every estimator

    def checks():  # a SeedSequence spawns new children on every call, so a fresh one per use
        subs = np.random.SeedSequence(seed).spawn(3)
        return [("semigroup", g, one, horizon, replicas, subs[0]),
                ("resolvent", one, one, horizon, max(4, min(replicas, 16)), subs[1]),
                ("resolvent", g, one, horizon, replicas, subs[2])]

    alone = [row for check in checks()
             for row in operator_limit_checks(law, [check], n_list, dt, kernel, k=k)]
    assert [r.to_dict() for r in suite] == [r.to_dict() for r in alone]
    for j, (mode, f, psi, x, M, sub) in enumerate(checks()):
        for i, (n, sub_n) in enumerate(zip(n_list, sub.spawn(len(n_list)))):
            row = suite[j * (len(n_list) + 1) + i]
            assert row.name.endswith(f"|n={n}]")
            assert (row.lhs, row.stderr) == _ref_operator_estimate(
                law, mode, f, psi, x, n, M, dt, kernel, sub_n)
