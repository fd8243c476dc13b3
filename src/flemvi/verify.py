"""Deterministic identities and statistical limit tests, with uniform reporting.

Every check returns one or more TestReport rows.  Deterministic checks pass at
an absolute tolerance; statistical checks pass at k standard errors (default
3) with an absolute floor so exact-by-construction estimators with zero
variance still compare cleanly.  Right-hand sides are always computed from
quadrature and spectral calculus, never from the simulator, so a failing row
localizes to one side.

Suites:
  identity_suite           exact identities of the spectral layer
  exit_moment_check        boundary-flux moment of the curvature-weighted law
  jump_increment_checks    coupled relocation/diffusion increment estimators
  boundary_cutoff_diagnostic  soft boundary-vanishing observable, reported only
  convergence_experiment   empirical-measure moments vs the limit flow
  operator_limit_checks    semigroup / resolvent estimates vs flow targets
"""

import math
import time

from dataclasses import dataclass, fields

import numpy as np

from .kernels import (
    KernelKind,
    _check_population,
    admissible_from_perturbation,
    sample_curvature_weighted,
    sample_relocation,
    sample_relocations,
)
from .measures import (
    CylinderFunction,
    EmpiricalMeasure,
    _grad_sup_bound,
    cylinder_value,
    cylinder_value_many,
    discrete_generator,
    boundary_glued_metric,
    pair_many,
)
from .simulator import (
    _as_seedseq,
    _replica_starts,
    _stacked_estimates,
    _step_count,
    advance_steps,
    first_exit_batch,
    mean_and_stderr,
    run_replicas,
)
from .spectral import (
    DensityMeasure,
    _axis_rule,
    _tensor_points,
    curvature_mass_routes,
    flow,
    flow_generator,
    diffusion_part,
    replenishment_part,
    initial_decay_rate,
)

# Absolute floor for k-sigma tolerances: keeps zero-variance (exact)
# estimators comparable without ever mattering at statistical scales.
ZERO_VARIANCE_FLOOR = 1e-9
DEFAULT_K_SIGMA = 3.0
_BATCH = 128  # samples per replica stream in batched estimators
_FD_PAIRS = 20  # curved (observable, density) pairs behind the flow-generator order check
_CUTOFF_CAP = 10.0  # boundary_cutoff_diagnostic's cap on 1/boundary-distance


@dataclass
class TestReport:
    """One pass/fail row: estimate vs oracle under an explicit rule."""

    __test__ = False  # not a pytest collectable despite the name

    name: str
    lhs: float
    stderr: float  # 0.0 for deterministic rows
    rhs: float
    tolerance: float
    rule: str
    passed: bool
    runtime: float
    samples: int
    underpowered: bool = False
    note: str = ""

    def __post_init__(self):
        for f in fields(self):
            if f.type in (float, bool, int):
                setattr(self, f.name, f.type(getattr(self, f.name)))

    def to_dict(self):
        """JSON form; wall-clock runtime is deliberately omitted so artifacts
        are byte-identical across re-runs.  Non-finite sentinels (diagnostic
        rows) become null to keep the JSON strict."""
        row = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "runtime"}
        return {key: None if isinstance(v, float) and not math.isfinite(v) else v
                for key, v in row.items()}


_ALPHA = 0.0026997960632601866  # 2 * ndtr(-DEFAULT_K_SIGMA), the default rule's error budget
# cephes ndtri's tail coefficients for exp(-32) < y <= exp(-2), highest power
# first, with Q1's implicit leading 1 written out
_NDTRI_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1, 5.71628192246421288162E1,
             4.40805073893200834700E1, 1.46849561928858024014E1, 2.18663306850790267539E0,
             -1.40256079171354495875E-1, -3.50424626827848203418E-2, -8.57456785154685413611E-4)
_NDTRI_Q1 = (1.0, 1.57799883256466749731E1, 4.53907635128879210584E1, 4.13172038254672030440E1,
             1.50425385692907503408E1, 2.50464946208309415979E0, -1.42182922854787788574E-1,
             -3.80806407691578277194E-2, -9.33259480895457427372E-4)


def _ndtri_tail(y):
    """Standard normal quantile for exp(-32) < y <= exp(-2), as cephes
    ``ndtri`` computes it (same bits as ``scipy.special.ndtri``)."""
    x = math.sqrt(-2.0 * math.log(y))
    z = 1.0 / x
    num = den = 0.0
    for p, q in zip(_NDTRI_P1, _NDTRI_Q1):  # Horner, as cephes polevl and p1evl
        num, den = num * z + p, den * z + q
    return -(x - math.log(x) / x - z * num / den)


def bonferroni_k(n_tests):
    """Widened sigma multiple giving the default rule's two-sided error budget
    split evenly across ``n_tests`` simultaneous tests."""
    if not 1 <= n_tests <= 10**10:  # the quantile's tail branch ends at 1e10 tests
        raise ValueError("need between 1 and 1e10 simultaneous tests")
    return -_ndtri_tail(_ALPHA / (2.0 * n_tests))


def statistical_report(name, lhs, stderr, rhs, samples, runtime,
                       k=DEFAULT_K_SIGMA, scale_hint=None):
    """k-sigma two-sided comparison with a zero-variance floor.

    The row is flagged underpowered when the tolerance band swamps the
    target's own scale (``scale_hint`` overrides |rhs| for zero targets) or
    when fewer than 100 replicas back the standard error.
    """
    tolerance = max(k * stderr, ZERO_VARIANCE_FLOOR)
    scale = abs(rhs)
    if scale_hint is not None:
        scale = max(scale, abs(scale_hint))
    underpowered = (scale > 0.0 and k * stderr > scale) or samples < 100
    return TestReport(
        name=name,
        lhs=lhs,
        stderr=stderr,
        rhs=rhs,
        tolerance=tolerance,
        rule=f"{k:g}*sigma",
        passed=abs(lhs - rhs) <= tolerance,
        runtime=runtime,
        samples=samples,
        underpowered=underpowered,
        note="UNDERPOWERED" if underpowered else "",
    )


def deterministic_report(name, lhs, rhs, tolerance, runtime, samples=0, note=""):
    """Absolute-tolerance comparison for exact identities."""
    return TestReport(
        name=name,
        lhs=lhs,
        stderr=0.0,
        rhs=rhs,
        tolerance=tolerance,
        rule="absolute",
        passed=abs(lhs - rhs) <= tolerance,
        runtime=runtime,
        samples=samples,
        note=note,
    )


def trend_report(name, deviations, stderrs, runtime, samples, note=""):
    """Nonincreasing-deviation check across an increasing size ladder.

    An inversion is counted only when the next deviation exceeds the previous
    one by more than their joint one-sigma noise; a single inversion is
    tolerated.
    """
    deviations = [float(d) for d in deviations]
    stderrs = [float(s) for s in stderrs]
    inversions = 0
    for i in range(len(deviations) - 1):
        allowance = max(math.hypot(stderrs[i], stderrs[i + 1]), ZERO_VARIANCE_FLOOR)
        if deviations[i + 1] > deviations[i] + allowance:
            inversions += 1
    devs = ", ".join(f"{d:.3e}" for d in deviations)
    return TestReport(
        name=name,
        lhs=inversions,
        stderr=0.0,
        rhs=0.0,
        tolerance=1.0,
        rule="nonincreasing (<=1 sigma-inversion)",
        passed=inversions <= 1,
        runtime=runtime,
        samples=samples,
        note=(note + "; " if note else "") + f"deviations: [{devs}]",
    )


def diagnostic_report(name, lhs, stderr, runtime, samples, note=""):
    """Reported value with no assertion attached (always passes)."""
    return TestReport(
        name=name,
        lhs=lhs,
        stderr=stderr,
        rhs=math.nan,
        tolerance=math.inf,
        rule="diagnostic (reported, not asserted)",
        passed=True,
        runtime=runtime,
        samples=samples,
        note=note,
    )


def suite_passed(reports):
    return all(r.passed for r in reports)


# ---------------------------------------------------------------------------
# deterministic identity suite
# ---------------------------------------------------------------------------

def standard_density_set(basis):
    """Five admissible densities spanning the test class: the stationary
    profile plus one- and two-mode perturbations (comparison constants found
    automatically)."""
    specs = [{}, {2: 0.05}, {2: 0.1}, {3: 0.05}, {2: 0.05, 3: 0.03}]
    return [admissible_from_perturbation(basis, s) for s in specs]


def _fd_neg_half_laplacian(mu, pts):
    """Independent route to -(1/2) Laplacian of the density: fourth-order
    five-point second differences per axis on the evaluated density."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    domain = mu.basis.domain
    acc = np.zeros(len(pts))
    stencil = ((-1.0, 2), (16.0, 1), (-30.0, 0), (16.0, -1), (-1.0, -2))
    for ax in range(domain.dimension):
        h = 1e-3 * domain.sides[ax]
        for coef, shift in stencil:
            shifted = pts.copy()
            shifted[:, ax] += shift * h
            acc += coef / (12.0 * h * h) * mu.density(shifted)
    return -0.5 * acc


def _random_mixture(rng, coeff_rows):
    basis = coeff_rows[0][0]
    w = rng.dirichlet(np.ones(len(coeff_rows)))
    return DensityMeasure(basis, w @ np.array([c for _, c in coeff_rows]))


def identity_suite(basis, law=None, seed=20260814):
    """Exact-identity checks of the spectral layer; all absolute tolerances.

    Covers: density-series reconstruction against finite differences, the
    initial decay rate at the stationary profile, the two quadrature routes
    to the curvature mass, the flow's semigroup property, the flow
    generator's finite-difference order, and the discrete generator against
    a brute-force lifted Laplacian.
    """
    reports = []
    dens_set = standard_density_set(basis)
    densities = [ad.mu for ad in dens_set]
    if law is not None:
        densities = [ad.mu for _, ad in law.components] + densities
    rng = np.random.default_rng(seed)
    coeff_rows = [(basis, mu.coeffs) for mu in densities]

    # 1) series reconstruction: spectral -(1/2)Laplacian vs finite differences
    t0 = time.perf_counter()
    # a uniform grid 5 % in from every face, where the stencil stays inside
    per_axis = 81 if basis.domain.dimension == 1 else 41
    grid = _tensor_points([np.linspace(a + 0.05 * (b - a), b - 0.05 * (b - a), per_axis)
                           for a, b in zip(basis.domain.lo, basis.domain.hi)])
    sup_err = 0.0
    for mu in densities:
        series = mu.half_laplacian(grid) * (-1.0)
        fd = _fd_neg_half_laplacian(mu, grid)
        sup_err = max(sup_err, float(np.max(np.abs(series - fd))))
    reports.append(deterministic_report(
        "identity:series_reconstruction", sup_err, 0.0, 1e-6,
        time.perf_counter() - t0, samples=len(densities) * len(grid),
        ))

    # 2) initial decay rate at the stationary profile equals the ground rate
    t0 = time.perf_counter()
    mu0 = DensityMeasure.stationary_profile(basis)
    reports.append(deterministic_report(
        "identity:stationary_decay_rate", initial_decay_rate(mu0),
        float(basis.lambdas[0]), 1e-12, time.perf_counter() - t0, samples=1))

    # 3) curvature mass: spectral sum vs direct quadrature
    t0 = time.perf_counter()
    worst = 0.0
    for mu in densities:
        lhs, rhs = curvature_mass_routes(mu)
        worst = max(worst, abs(lhs - rhs))
    reports.append(deterministic_report(
        "identity:curvature_mass_two_routes", worst, 0.0, 1e-8,
        time.perf_counter() - t0, samples=len(densities)))

    # 4) flow semigroup property on random (s, t, mu)
    t0 = time.perf_counter()
    residual = 0.0
    for _ in range(100):
        mu = _random_mixture(rng, coeff_rows)
        while True:
            s, t = rng.uniform(-0.5, 2.0, size=2)
            if -0.5 <= s + t <= 2.0:
                break
        two_step = flow(flow(mu, s), t)
        one_step = flow(mu, s + t)
        residual = max(residual, float(np.max(np.abs(two_step.coeffs - one_step.coeffs))))
    reports.append(deterministic_report(
        "identity:flow_semigroup_property", residual, 0.0, 1e-10,
        time.perf_counter() - t0, samples=100))

    # 5) flow generator vs central differences of f(flow(mu, t)): the error
    #    must shrink by ~100x when h drops from 1e-3 to 1e-4 (second order)
    t0 = time.perf_counter()
    worst_ratio_dev = 0.0
    built = 0
    attempts = 0
    while built < _FD_PAIRS and attempts < 50 * _FD_PAIRS:
        attempts += 1
        mu = _random_mixture(rng, coeff_rows)
        a1, a2, a30, a21 = rng.uniform(0.5, 1.5, size=4) * rng.choice([-1.0, 1.0], size=4)
        f = CylinderFunction.polynomial(
            (1, 2), [(a1, (1, 0)), (a2, (0, 1)), (a30, (3, 0)), (a21, (2, 1))])

        def F(tau):
            return cylinder_value(f, flow(mu, tau))

        hs = 0.02
        third = (F(2 * hs) - 2 * F(hs) + 2 * F(-hs) - F(-2 * hs)) / (2 * hs ** 3)
        if abs(third) < 0.05:
            continue  # too little curvature to resolve the order cleanly
        exact = flow_generator(f, mu)
        errs = []
        for h in (1e-3, 1e-4):
            errs.append(abs((F(h) - F(-h)) / (2 * h) - exact))
        if errs[1] < 1e-13:
            continue  # below float resolution; the ratio would be noise
        worst_ratio_dev = max(worst_ratio_dev, abs(errs[0] / errs[1] - 100.0))
        built += 1
    if built < _FD_PAIRS:
        raise RuntimeError("could not build enough curved test pairs")
    reports.append(deterministic_report(
        "generator:flow_derivative_fd_ratio", worst_ratio_dev, 0.0, 20.0,
        time.perf_counter() - t0, samples=_FD_PAIRS,
        note="max |err(1e-3)/err(1e-4) - 100| over pairs"))

    # 6) discrete generator vs brute-force lifted Laplacian at tiny n
    t0 = time.perf_counter()
    domain = basis.domain
    f_tests = [
        CylinderFunction.polynomial((1, 2), [(1.0, (2, 0)), (0.5, (1, 1))]),
        CylinderFunction.polynomial((1,), [(1.0, (3,))]),
    ]
    worst_rel = 0.0
    h = 5e-3
    shifts = np.array([2, 1, 0, -1, -2]) * h
    for n in (1, 2, 3):
        lo = domain.lo + 0.1 * np.asarray(domain.sides)
        hi = domain.hi - 0.1 * np.asarray(domain.sides)
        positions = rng.uniform(lo, hi, size=(n, domain.dimension))
        emp = EmpiricalMeasure(domain, positions)
        # row 5j + s: the configuration with coordinate j moved by shifts[s]
        stack = positions.ravel() + np.kron(np.eye(positions.size), shifts[:, None])
        for f in f_tests:
            acc = 0.0
            for v in cylinder_value_many(f, stack.reshape(-1, n, domain.dimension),
                                         basis).reshape(-1, 5).tolist():
                acc += (-v[0] + 16 * v[1] - 30 * v[2] + 16 * v[3] - v[4]) / (12 * h * h)
            brute = 0.5 * acc
            mine = discrete_generator(f, emp, basis)
            worst_rel = max(worst_rel, abs(mine - brute) / max(abs(brute), 1e-12))
    reports.append(deterministic_report(
        "generator:discrete_matches_lifted_laplacian", worst_rel, 0.0, 1e-6,
        time.perf_counter() - t0, samples=6))
    return reports


# ---------------------------------------------------------------------------
# boundary-flux moment (exit-side pairing of the curvature-weighted law)
# ---------------------------------------------------------------------------

def _exit_side(law, n, M, dt, seed, jobs, observe):
    """Values of M exit-side samples: batches of up to _BATCH configurations,
    one ``run_replicas`` stream each, concatenated in order.  A batch draws its
    starts and their total masses from the curvature-weighted law and diffuses
    them without relocation to the first boundary hit (``first_exit_batch``,
    exact: dt does not change it);
    ``observe(rng, starts, masses, finals, hit_index, mask)`` returns its values
    (or rows), drawing any further numbers from ``rng``; ``mask`` marks the
    boundary atoms of ``finals``."""
    full, rem = divmod(M, _BATCH)
    sizes = [_BATCH] * full + ([rem] if rem else [])

    def worker(rng, b):
        starts, masses = sample_curvature_weighted(law, n, sizes[b], rng)
        finals, hit_index, _taus = first_exit_batch(law.basis.domain, starts, dt, rng)
        mask = np.arange(n) == hit_index[:, None]
        return observe(rng, starts, masses, finals, hit_index, mask)

    return np.concatenate(run_replicas(len(sizes), seed, worker, jobs))


def exit_moment_check(law, f, n, M, dt, seed, jobs=1, k=DEFAULT_K_SIGMA):
    """First-exit moment estimator against its population (n -> inf) value.

    LHS: sample a configuration and total mass from the curvature-weighted
    law, diffuse without relocation to the first boundary hit, evaluate the
    observable on the exit configuration (the boundary atom contributes
    zero), and average mass/n times that value.  RHS: mixture average of the
    observable at each component density times the component's curvature
    mass.  For the constant observable the LHS equals the RHS exactly, per
    path; for other observables the missing boundary atom biases the LHS by
    O(1/n), so the RHS is reached only as n grows.
    """
    t0 = time.perf_counter()

    def observe(_rng, _starts, masses, finals, _hit, mask):
        return masses / n * cylinder_value_many(f, finals, law.basis, mask)

    lhs, stderr = mean_and_stderr(_exit_side(law, n, M, dt, seed, jobs, observe))
    rhs = math.fsum(
        w * cylinder_value(f, ad.mu) * ad.curvature_mass for w, ad in law.components)
    return statistical_report(
        f"exit_moment[{f.name}|n={n}]", lhs, stderr, rhs, M,
        time.perf_counter() - t0, k=k)


# ---------------------------------------------------------------------------
# coupled jump-increment estimators
# ---------------------------------------------------------------------------

def _jump_bound(f, basis, r):
    """Per-mode pairing increment bound for a single relocated atom at
    metric distance r (or each of an array of r) from its boundary jump-off point."""
    sup_h = math.prod(math.sqrt(2.0 / s) for s in basis.domain.sides)
    return np.max([np.minimum(sup_h, _grad_sup_bound(basis, k) * r) for k in f.mode_indices], axis=0)


def jump_increment_checks(law, f, n, M, dt, kernel, seed, jobs=1,
                          k=DEFAULT_K_SIGMA):
    """Coupled estimators for the two halves of the flow generator.

    One sampled path yields the start configuration x (curvature-weighted
    law, carrying a total mass), the first-exit configuration y, and the
    post-relocation configuration z (common random numbers).  Estimates:
    mass * mean[f(z) - f(y)] for the mass-replenishment half and
    mass * mean[f(y) - f(x)] for the diffusive half, each against its exact
    quadrature value; the coupled sum targets their sum with the diffusive
    scale as the power reference.  Asserted along the way: z differs from y
    in exactly one atom, and each relocation moves the observable by no more
    than the cylinder Lipschitz bound.
    """
    if kernel.kind is not KernelKind.MIXTURE_REWEIGHTED:
        raise ValueError(
            "coupled jump checks require the configuration-dependent kernel")
    t0 = time.perf_counter()
    basis = law.basis
    domain = basis.domain

    def observe(rng, starts, masses, finals, hit_index, mask):
        # observing draws nothing, so all relocations can come first; a law that reads
        # the other atoms relocates configuration b from the b-th of rng.spawn(B)
        relocated = finals.copy()
        if kernel.reads_others:
            relocated[mask] = sample_relocation(kernel, finals, hit_index, rng.spawn(len(finals)))
        else:
            relocated[mask] = sample_relocations(kernel, rng, len(finals))
        if not np.array_equal(relocated[~mask], finals[~mask]):
            raise AssertionError("relocation touched a surviving atom")
        _px, py, pz = pairs = np.stack([pair_many(f.mode_indices, pos, basis, m) for pos, m in
                                        ((starts, None), (finals, mask), (relocated, None))])
        fx, fy, fz = f.phi(pairs)
        r = boundary_glued_metric(domain, finals[mask], relocated[mask])
        grad = np.maximum(np.abs(f.grad(py)), np.abs(f.grad(pz)))
        bound = 2.0 * grad.sum(axis=-1) * _jump_bound(f, basis, r) + 1e-12
        moved = n * np.abs(fz - fy)
        for i in np.flatnonzero(moved > bound)[:1]:
            raise AssertionError(f"jump moved the observable by {moved[i]:.3e}, "
                                 f"bound {bound[i]:.3e}")
        return np.stack([masses * (fz - fy), masses * (fy - fx)], axis=-1)

    vals = _exit_side(law, n, M, dt, seed, jobs, observe)
    b_lhs, b_se = mean_and_stderr(vals[:, 0])
    c_lhs, c_se = mean_and_stderr(vals[:, 1])
    s_lhs, s_se = mean_and_stderr(vals[:, 0] + vals[:, 1])
    rhs_repl = math.fsum(w * replenishment_part(f, ad.mu) for w, ad in law.components)
    rhs_diff = math.fsum(w * diffusion_part(f, ad.mu) for w, ad in law.components)
    runtime = time.perf_counter() - t0
    return [
        statistical_report(f"jump_replenishment[{f.name}|n={n}]", b_lhs, b_se,
                           rhs_repl, M, runtime, k=k),
        statistical_report(f"jump_diffusion[{f.name}|n={n}]", c_lhs, c_se,
                           rhs_diff, M, runtime, k=k),
        statistical_report(f"jump_increment_sum[{f.name}|n={n}]", s_lhs, s_se,
                           rhs_repl + rhs_diff, M, runtime, k=k,
                           scale_hint=abs(rhs_diff)),
    ]


# ---------------------------------------------------------------------------
# soft boundary-vanishing diagnostic
# ---------------------------------------------------------------------------

def boundary_cutoff_diagnostic(law, n_list, M, dt, seed, jobs=1):
    """Exit-side moment of a soft boundary-vanishing observable, per n.

    The observable is bump((k, mu)) with k = min(1/boundary-distance, _CUTOFF_CAP)
    and bump(s) = exp(-s^2); it decays when atoms crowd the boundary.  A hard
    cutoff (zero whenever an atom sits on the boundary) makes the exit-side
    moment identically zero — every exit configuration carries a boundary
    atom — so only the soft version carries information.  Values are
    reported per n with no assertion attached.
    """
    domain = law.basis.domain

    def estimate(n, sub):
        def observe(_rng, _starts, masses, finals, _hit, mask):
            dists = np.where(mask, 0.0, domain.dist_to_boundary_many(finals))
            s = np.minimum(1.0 / np.maximum(dists, 1e-300), _CUTOFF_CAP)  # cap at distance 0
            # libm's exp per value: numpy's is not checked to match it bit for bit
            bumps = np.array([math.exp(-v * v) for v in s.mean(axis=1)])
            return masses / n * bumps

        return mean_and_stderr(_exit_side(law, n, M, dt, sub, jobs, observe))

    stats, runtimes = _run_ladder(n_list, [seed], estimate)
    return [
        diagnostic_report(f"boundary_cutoff[n={n}]", lhs, stderr, rt, M,
                          note="hard-cutoff analogue is identically 0 at every n")
        for n, (lhs, stderr), rt in zip(n_list, stats, runtimes)
    ]


# ---------------------------------------------------------------------------
# population ladders
# ---------------------------------------------------------------------------

def _ladder_sizes(n_list, kernel):
    """The population ladder as ints, checked nonempty, strictly increasing
    and large enough for the kernel (``_check_population``)."""
    n_list = [int(n) for n in n_list]
    if not n_list or n_list != sorted(n_list) or len(set(n_list)) != len(n_list):
        raise ValueError("n_list must be a nonempty, strictly increasing list")
    _check_population(kernel, n_list[0])
    return n_list


def _run_ladder(n_list, seeds, estimate):
    """``estimate(n, *streams)`` per n, one stream per n spawned from each of
    ``seeds``; returns the results and their wall-clock runtimes."""
    results, runtimes = [], []
    streams = zip(*(_as_seedseq(seed).spawn(len(n_list)) for seed in seeds))
    for n, subs in zip(n_list, streams):
        t0 = time.perf_counter()
        results.append(estimate(n, *subs))
        runtimes.append(time.perf_counter() - t0)
    return results, runtimes


def _ladder_reports(label, trend_name, n_list, stats, runtimes, target, M, k,
                    assert_every_n=False):
    """Rows of one (mean, stderr) per n against one target: ``label|n=..]``
    per n, asserted at k sigma for the largest n (for every n with
    ``assert_every_n``) and a diagnostic otherwise, then the trend row."""
    reports = []
    for n, (est, se), rt in zip(n_list, stats, runtimes):
        name = f"{label}|n={n}]"
        if assert_every_n or n == n_list[-1]:
            reports.append(statistical_report(name, est, se, target, M, rt, k=k))
        else:
            reports.append(diagnostic_report(name, est, se, rt, M,
                                             note=f"target {target:.6g}"))
    reports.append(trend_report(
        trend_name, [abs(est - target) for est, _se in stats],
        [se for _est, se in stats], sum(runtimes), M * len(n_list),
        note=f"n_list={n_list}"))
    return reports


# ---------------------------------------------------------------------------
# empirical-measure convergence to the limit flow
# ---------------------------------------------------------------------------

def convergence_experiment(law, t, n_list, M, dt, kernel, seed, jobs=1,
                           modes=(1, 2, 3, 4), k=DEFAULT_K_SIGMA):
    """Mode-moment means of the particle system vs the limit flow.

    For each n, averages (h_mode, state at t) over M replicas; the target is
    the mixture average of the same pairing under each component's flow.
    Per mode: the largest-n estimate must sit within k sigma of the target
    and the deviation ladder must be nonincreasing (one sigma-inversion
    allowed); smaller-n rows are reported as diagnostics.
    """
    n_list = _ladder_sizes(n_list, kernel)
    basis = law.basis
    if max(modes) > basis.K:
        raise ValueError("observable mode beyond the basis truncation")
    n_steps = _step_count(t, dt)
    targets = {
        kk: math.fsum(w * flow(ad.mu, t).pair(kk) for w, ad in law.components)
        for kk in modes
    }

    def estimate(n, sub):
        pos, rngs = _replica_starts(law, n, [(M, sub)], jobs)
        advance_steps(basis.domain, pos, n_steps, dt, kernel, rngs)
        vals = pair_many(modes, pos, basis)
        return [mean_and_stderr(vals[:, j]) for j in range(len(modes))]

    per_n, runtimes = _run_ladder(n_list, [seed], estimate)
    reports = []
    for j, kk in enumerate(modes):
        reports += _ladder_reports(
            f"convergence[mode{kk}", f"convergence_trend[mode{kk}]", n_list,
            [stats[j] for stats in per_n], runtimes, targets[kk], M, k)
    return reports


# ---------------------------------------------------------------------------
# semigroup / resolvent operator limits
# ---------------------------------------------------------------------------

def _is_constant_one(g):
    return g.n_modes == 0 and abs(g.phi(np.zeros(0)) - 1.0) < 1e-15


def resolvent_target(law, g, beta):
    """Quadrature oracle for the resolvent of a flow observable: mixture
    average of the exponentially weighted time integral of g along each
    component's flow (Gauss-Legendre on [0, 40/beta], then the frozen tail);
    exactly c/beta for a constant c.  One table gives the flow at every time
    with the bits of ``flow``."""
    if g.n_modes == 0:
        return float(g.phi(np.zeros(0))) / beta
    T = 40.0 / beta
    nodes, weights = _axis_rule(0.0, T)

    def total(mu):  # survival_split's arithmetic at the nodes and at T
        decay = np.exp(np.multiply.outer(np.append(nodes, T), mu.basis.lambdas))
        u = np.where(mu.coeffs != 0.0, decay * mu.coeffs, 0.0)
        z = [math.fsum(row) for row in (u * mu.basis.unit_integrals).tolist()]
        if min(z) <= 0:
            raise ValueError(f"evolved mass {next(v for v in z if v <= 0)!r} is not positive")
        vals = g.phi(u[:, [k - 1 for k in g.mode_indices]] / np.c_[z]).tolist()
        head = [math.exp(-beta * s) * v for s, v in zip(nodes, vals)]
        return math.fsum(weights * head) + math.exp(-beta * T) / beta * vals[-1]

    return math.fsum(w * total(ad.mu) for w, ad in law.components)


def operator_limit_checks(law, checks, n_list, dt, kernel, jobs=1, k=DEFAULT_K_SIGMA):
    """Semigroup or resolvent estimates across a particle-count ladder vs
    the flow-computed limit target, for each (mode, g, psi, t_or_beta, M,
    seed) of ``checks``, in order; at each n those whose observables read a mode step as one stack.

    mode="semigroup": estimates mean[g(state at t) psi(state at 0)] per n
    against the mixture average of g(flow(d, t)) psi(d).  mode="resolvent":
    estimates the beta-resolvent of g per n (psi must be the constant one;
    the estimator carries no start weighting) against the flow's
    exponentially weighted time integral.  In both modes the largest-n row
    is asserted at k sigma and the deviation ladder must be nonincreasing; a
    constant's resolvent rows are exact (the measure has mass 1), so all are
    asserted.  Table runtimes: a row shows its n's run, shared by all checks
    run with it, and a trend row their sum (the JSON has none).
    """
    n_list = _ladder_sizes(n_list, kernel)
    blocks, runs = [], []
    for mode, g, psi, t_or_beta, M, _seed in checks:
        if mode not in ("semigroup", "resolvent"):
            raise ValueError("mode must be 'semigroup' or 'resolvent'")
        x = float(t_or_beta)
        if mode == "resolvent" and not _is_constant_one(psi):
            raise ValueError("the resolvent estimator carries no start weighting; "
                             "psi must be the constant one")
        if mode == "semigroup":
            target = math.fsum(w * cylinder_value(g, flow(ad.mu, x)) * cylinder_value(psi, ad.mu)
                               for w, ad in law.components)
        else:
            target = resolvent_target(law, g, x)
        label = f"{mode}[{g.name}|{'t' if mode == 'semigroup' else 'beta'}={x:g}"
        blocks.append((label, target, M, mode == "resolvent" and _is_constant_one(g)))
        runs.append((mode, g, psi, x, M))
    per_n, runtimes = _run_ladder(n_list, [check[5] for check in checks], lambda n, *subs: (
        _stacked_estimates(law, n, dt, kernel, jobs, [r + (s,) for r, s in zip(runs, subs)])))
    return [row for j, (label, target, M, every_n) in enumerate(blocks)
            for row in _ladder_reports(label, f"{label}]_trend", n_list, [s[j][:2] for s in per_n],
                                       runtimes, target, M, k, assert_every_n=every_n)]


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def render_table(reports):
    """Aligned text table, one row per report."""
    header = ("result", "name", "lhs", "stderr", "rhs", "|lhs-rhs|",
              "tolerance", "rule", "samples", "sec")
    rows = []
    for r in reports:
        dev = abs(r.lhs - r.rhs) if math.isfinite(r.rhs) else float("nan")
        rows.append((
            ("PASS" if r.passed else "FAIL") + ("*" if r.underpowered else ""),
            r.name,
            f"{r.lhs:.10g}",
            f"{r.stderr:.4g}",
            f"{r.rhs:.10g}" if math.isfinite(r.rhs) else "-",
            f"{dev:.4g}" if math.isfinite(dev) else "-",
            f"{r.tolerance:.4g}" if math.isfinite(r.tolerance) else "-",
            r.rule,
            str(r.samples),
            f"{r.runtime:.2f}",
        ))
    widths = [max(len(header[j]), *(len(row[j]) for row in rows)) if rows
              else len(header[j]) for j in range(len(header))]
    lines = []
    lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    notes = [(r.name, r.note) for r in reports if r.note]
    if notes:
        lines.append("")
        for name, note in notes:
            lines.append(f"  {name}: {note}")
    return "\n".join(lines)


def reports_to_json(suite, reports, seed, config_sha256):
    """Machine-readable suite summary (no wall-clock timings)."""
    return {
        "suite": suite,
        "passed": suite_passed(reports),
        "reports": [r.to_dict() for r in reports],
        "seed": int(seed),
        "config_sha256": config_sha256,
    }
