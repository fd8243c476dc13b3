import math

import numpy as np
import pytest

from flemvi.geometry import interval, rectangle
from flemvi.spectral import (
    DensityMeasure,
    SpectralBasis,
    _last_mode,
    _series,
    curvature_mass_routes,
    diffusion_part,
    flow,
    flow_generator,
    initial_decay_rate,
    replenishment_part,
    survival_split,
)
from flemvi.measures import CylinderFunction
from flemvi.kernels import InitialLaw, _atom_terms, admissible_from_perturbation
from flemvi.verify import standard_density_set

PI = math.pi

# independently derived constants for the interval (0, pi):
#   mode-k eigenvalue of the half-Laplacian: -k^2/2
#   L1 norm of the ground mode: 2*sqrt(2/pi)
#   (ground mode, stationary profile) pairing: pi/(2*sqrt(2*pi)) * ... = 1/L1norm
GROUND_L1 = 2.0 * math.sqrt(2.0 / PI)


def test_eigenvalues_interval(basis_1d):
    for k in (1, 2, 5, 16):
        lam = basis_1d.lambdas[k - 1]
        assert lam == pytest.approx(-0.5 * k * k, rel=1e-14)


def test_eigenvalues_rectangle(basis_2d):
    # modes are sorted by decreasing eigenvalue (least-negative first)
    lams = list(basis_2d.lambdas)
    assert all(lams[i] >= lams[i + 1] for i in range(len(lams) - 1))
    lx, ly = basis_2d.domain.sides
    lam1 = -0.5 * ((PI / lx) ** 2 + (PI / ly) ** 2)
    assert lams[0] == pytest.approx(lam1, rel=1e-14)


def _gram_error(basis):
    """Worst quadrature deviation from eigenfunction orthonormality."""
    H = basis.eigenfunction_matrix(basis.quad_points)
    G = (H * basis.quad_weights) @ H.T
    return float(np.max(np.abs(G - np.eye(basis.K))))


def test_orthonormality(basis_1d):
    assert _gram_error(basis_1d) < 1e-12


def test_orthonormality_2d(basis_2d):
    assert _gram_error(basis_2d) < 1e-12


def test_unit_integrals_match_quadrature(basis_1d):
    for k in (1, 2, 3, 7):
        quad = basis_1d.integrate(lambda p, k=k: basis_1d.eigenfunction(k, p))
        assert quad == pytest.approx(basis_1d.unit_integrals[k - 1], abs=1e-13)


def test_eigenfunction_gradient_fd(basis_1d):
    pts = np.linspace(0.4, 2.6, 7).reshape(-1, 1)
    h = 1e-6
    for k in (1, 3, 8):
        grad = basis_1d.eigenfunction_gradient(k, pts)[:, 0]
        fd = (
            basis_1d.eigenfunction(k, pts + h) - basis_1d.eigenfunction(k, pts - h)
        ) / (2 * h)
        np.testing.assert_allclose(grad, fd, rtol=1e-7, atol=1e-7)


def test_stationary_profile_is_probability(basis_1d):
    prof = DensityMeasure.stationary_profile(basis_1d)
    assert prof.mass() == pytest.approx(1.0, abs=1e-13)
    assert prof.pair(1) == pytest.approx(1.0 / GROUND_L1, abs=1e-12)
    vals = prof.density(np.linspace(0.0, PI, 203)[1:-1])
    assert np.all(vals > 0)


def test_cdf_1d(basis_1d):
    prof = DensityMeasure.stationary_profile(basis_1d)
    assert prof.cdf_1d(0.0) == pytest.approx(0.0, abs=1e-12)
    assert prof.cdf_1d(PI) == pytest.approx(1.0, abs=1e-12)
    xs = np.linspace(0.0, PI, 50)
    cdf = np.array([prof.cdf_1d(x) for x in xs])
    assert np.all(np.diff(cdf) >= -1e-14)
    # symmetric profile: median at the center
    assert prof.cdf_1d(PI / 2) == pytest.approx(0.5, abs=1e-12)


def test_survival_split_stationary_decay(basis_1d):
    prof = DensityMeasure.stationary_profile(basis_1d)
    for t in (0.1, 0.5, 2.0):
        z, v = survival_split(prof, t)
        assert z == pytest.approx(math.exp(-0.5 * t), rel=1e-13)
        assert v.mass() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(v.coeffs, prof.coeffs, atol=1e-13)


def test_survival_split_at_zero(basis_1d):
    mu = admissible_from_perturbation(basis_1d, {2: 0.1}).mu
    z, v = survival_split(mu, 0.0)
    assert z == pytest.approx(1.0, abs=1e-14)
    np.testing.assert_allclose(v.coeffs, mu.coeffs, atol=1e-14)


def test_flow_semigroup_property(basis_1d):
    mu = admissible_from_perturbation(basis_1d, {2: 0.08, 3: 0.03}).mu
    one_shot = flow(mu, 0.7)
    two_shot = flow(flow(mu, 0.3), 0.4)
    np.testing.assert_allclose(two_shot.coeffs, one_shot.coeffs, atol=1e-12)


def test_flow_backward_inverts_forward(basis_1d):
    mu = admissible_from_perturbation(basis_1d, {2: 0.05}).mu
    back_forth = flow(flow(mu, -0.5), 0.5)
    np.testing.assert_allclose(back_forth.coeffs, mu.coeffs, atol=1e-12)


def test_flow_long_time_converges_to_stationary(basis_1d):
    mu = admissible_from_perturbation(basis_1d, {2: 0.1}).mu
    prof = DensityMeasure.stationary_profile(basis_1d)
    far = flow(mu, 25.0)
    np.testing.assert_allclose(far.coeffs, prof.coeffs, atol=1e-10)


# -- the merged flow against the two separate bodies it replaced ---------------

def _reference_survival_split(mu, t):
    """survival_split as it ran before it took over flow's arithmetic, for a
    unit-mass mu: (u, z, v)."""
    if t < 0:
        raise ValueError("survival_split is defined for t >= 0")
    basis = mu.basis
    if not np.any(mu.coeffs):
        return np.zeros(basis.K), 1.0, DensityMeasure(basis, np.zeros(basis.K))
    u = np.exp(basis.lambdas * t) * mu.coeffs
    z = math.fsum(u * basis.unit_integrals) / 1.0
    v = DensityMeasure(basis, u / z)
    return u, float(z), v


def _reference_flow(mu, t):
    """flow as it ran with its own body, for a unit-mass mu."""
    if t < -1:
        raise ValueError("backward evolution is only supported down to t = -1")
    if not np.any(mu.coeffs):
        raise ValueError("cannot flow the zero measure")
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = np.where(mu.coeffs != 0.0, np.exp(mu.basis.lambdas * t) * mu.coeffs, 0.0)
    if t < 0 and (not np.all(np.isfinite(scaled)) or np.max(np.abs(scaled)) > 1e12):
        raise ValueError("backward evolution exceeded the coefficient guard")
    Z = math.fsum(scaled * mu.basis.unit_integrals)
    if Z <= 0:
        raise ValueError(f"evolved mass {Z!r} is not positive")
    return DensityMeasure(mu.basis, scaled / Z)


@pytest.mark.parametrize("domain,modes", [
    (interval(0.0, PI), [{}, {2: 0.02, 3: 0.005}]),
    (rectangle(0.0, PI, 0.0, 1.5), [{4: 0.02}, {2: 0.03}]),
])
def test_merged_flow_equals_both_old_bodies(domain, modes):
    basis = SpectralBasis(domain, truncation_K=16)
    for spec in modes:
        mu = admissible_from_perturbation(basis, spec).mu
        for t in (0.0, 1e-3, 0.25, 2.0, 25.0):
            z, v = survival_split(mu, t)
            _u, z_ref, v_ref = _reference_survival_split(mu, t)
            assert _same_bits(np.array(z), np.array(z_ref))
            assert _same_bits(v.coeffs, v_ref.coeffs)
        for t in (0.0, 1e-3, 0.25, 2.0, 25.0, -1.0, -0.5, -1e-3):
            assert _same_bits(flow(mu, t).coeffs, _reference_flow(mu, t).coeffs)


def test_merged_flow_keeps_the_backward_guards(basis_1d):
    coeffs = DensityMeasure.stationary_profile(basis_1d).coeffs.copy()
    coeffs[15] = 1e-3  # exp(128) at t = -1 lifts it past the guard
    steep = DensityMeasure(basis_1d, coeffs)
    mild = admissible_from_perturbation(basis_1d, {2: 0.05}).mu
    for fn in (survival_split, flow, _reference_flow):
        with pytest.raises(ValueError, match="coefficient guard"):
            fn(steep, -1.0)
        with pytest.raises(ValueError, match="down to t = -1"):
            fn(mild, -1.5)


def test_flow_of_the_zero_measure_raises(basis_1d):
    with pytest.raises(ValueError, match="evolved mass 0.0 is not positive"):
        flow(DensityMeasure(basis_1d, np.zeros(basis_1d.K)), 0.5)


def test_initial_decay_rate_stationary(basis_1d):
    prof = DensityMeasure.stationary_profile(basis_1d)
    assert abs(initial_decay_rate(prof) - (-0.5)) < 1e-12


def test_generator_splits_into_two_parts(basis_1d):
    mu = admissible_from_perturbation(basis_1d, {2: 0.07}).mu
    f = CylinderFunction.polynomial((1, 2), [(1.0, (1, 1)), (0.5, (2, 0))])
    total = flow_generator(f, mu)
    assert total == pytest.approx(
        diffusion_part(f, mu) + replenishment_part(f, mu), abs=1e-12
    )


def test_generator_vanishes_on_constants(basis_1d):
    mu = admissible_from_perturbation(basis_1d, {2: 0.07}).mu
    one = CylinderFunction.constant(1.0)
    assert flow_generator(one, mu) == pytest.approx(0.0, abs=1e-14)


def test_curvature_mass_two_routes(basis_1d):
    for spec in ({}, {2: 0.1}, {3: 0.05}):
        mu = admissible_from_perturbation(basis_1d, spec).mu
        lhs, rhs = curvature_mass_routes(mu)
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_curvature_mass_stationary_value(basis_1d):
    prof = DensityMeasure.stationary_profile(basis_1d)
    lhs, _rhs = curvature_mass_routes(prof)
    # signed half-Laplacian integral of the profile = its decay rate
    assert lhs == pytest.approx(-0.5, abs=1e-12)


def _random_points(domain, N, rng):
    lo, hi = np.array(domain.lo), np.array(domain.hi)
    return lo + (hi - lo) * rng.random((N, domain.dimension))


def _per_mode_stack(basis, pts):
    return np.vstack([basis.eigenfunction(k, pts) for k in range(1, basis.K + 1)])


_MATRIX_DOMAINS = pytest.mark.parametrize("domain,K", [
    (interval(0.0, PI), 16),
    (rectangle(0.0, PI, 0.0, 1.5), 16),
    (rectangle(-0.5, 1.0, 0.2, 3.0), 10),  # not a perfect square
])
_MATRIX_SIZES = pytest.mark.parametrize("N", [1, 7, 799])


@_MATRIX_DOMAINS
@_MATRIX_SIZES
def test_eigenfunction_matrix_equals_per_mode_stack(domain, K, N):
    # the per-axis tables must reproduce each mode's own evaluation exactly
    basis = SpectralBasis(domain, truncation_K=K)
    pts = _random_points(domain, N, np.random.default_rng(N))
    assert np.array_equal(basis.eigenfunction_matrix(pts), _per_mode_stack(basis, pts))


@_MATRIX_DOMAINS
@_MATRIX_SIZES
def test_eigenfunction_matrix_prefix_equals_per_mode_stack(domain, K, N):
    basis = SpectralBasis(domain, truncation_K=K)
    pts = _random_points(domain, N, np.random.default_rng(N))
    expect = _per_mode_stack(basis, pts)
    for k in (1, K // 2, K):
        assert np.array_equal(basis.eigenfunction_matrix(pts, k), expect[:k])
    for k in (0, K + 1):
        with pytest.raises(ValueError):
            basis.eigenfunction_matrix(pts, k)


def _axis_sin(basis, j, axis, x):
    """The per-axis sine factor by its own formula, as eigenfunction evaluated it
    before it shared the stacked tables."""
    a = basis.domain.lo[axis]
    L = basis.domain.sides[axis]
    return math.sqrt(2.0 / L) * np.sin(j * math.pi * (x - a) / L)


@_MATRIX_DOMAINS
@_MATRIX_SIZES
def test_eigenfunctions_equal_the_per_axis_sine_formula(domain, K, N):
    basis = SpectralBasis(domain, truncation_K=K)
    pts = _random_points(domain, N, np.random.default_rng(N))
    for k in range(1, K + 1):
        multi = basis.mode_indices[k - 1]
        sins = [_axis_sin(basis, j, ax, pts[:, ax]) for ax, j in enumerate(multi)]
        expect = np.ones(N)
        for s in sins:
            expect = expect * s
        assert np.array_equal(basis.eigenfunction(k, pts), expect)
        grad = basis.eigenfunction_gradient(k, pts)
        for ax, j in enumerate(multi):
            g = basis._axis_dsin(j, ax, pts[:, ax])
            for other, s in enumerate(sins):
                if other != ax:
                    g = g * s
            assert np.array_equal(grad[:, ax], g)


# -- the series in mode order -----------------------------------------------------

def _reference_mode_order_sum(coeffs, H):
    """Per column, the terms of the carried modes 1..k_top added in mode order
    as Python floats."""
    k_top = int(max(np.flatnonzero(coeffs), default=0)) + 1
    out = np.empty(H.shape[1])
    for j in range(H.shape[1]):
        total = float(coeffs[0] * H[0, j])
        for k in range(1, k_top):
            total = total + float(coeffs[k] * H[k, j])
        out[j] = total
    return out


def _reference_density(mu, H):
    return _reference_mode_order_sum(mu.coeffs, H)


def _reference_half_laplacian(mu, H):
    return _reference_mode_order_sum(mu.coeffs * mu.basis.lambdas, H)


def _reference_atom_terms(law, H):
    terms = np.empty((2, len(law.components), H.shape[1]))
    for m, (_, ad) in enumerate(law.components):
        dens = _reference_density(ad.mu, H)
        terms[0, m] = np.log(dens)
        terms[1, m] = -_reference_half_laplacian(ad.mu, H) / dens
    return terms


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def _random_sparse_coeffs(K, rng):
    """Coefficients up to a random last mode, with zeros between nonzero ones."""
    k_top = int(rng.integers(1, K + 1))
    coeffs = np.where(rng.random(K) < 0.5, rng.standard_normal(K), 0.0)
    coeffs[k_top - 1] = rng.standard_normal()
    coeffs[k_top:] = 0.0
    return coeffs


@pytest.mark.parametrize("domain", [interval(0.0, PI), rectangle(0.0, PI, 0.0, 1.5)])
def test_prefix_series_equals_full_k_series(domain):
    rng = np.random.default_rng(2024)
    basis = SpectralBasis(domain, truncation_K=16)
    pts = _random_points(domain, 400, rng)
    H = _per_mode_stack(basis, pts)
    for _ in range(40):
        mu = DensityMeasure(basis, _random_sparse_coeffs(basis.K, rng))
        assert _same_bits(mu.density(pts), _reference_density(mu, H))
        assert _same_bits(mu.half_laplacian(pts), _reference_half_laplacian(mu, H))
    zero = DensityMeasure(basis, np.zeros(basis.K))
    assert _same_bits(zero.density(pts), _reference_density(zero, H))
    assert _same_bits(zero.half_laplacian(pts), _reference_half_laplacian(zero, H))
    nan_point = np.full((1, domain.dimension), np.nan)
    assert np.isnan(mu.density(nan_point)).all()


@pytest.mark.parametrize("domain,modes", [
    (interval(0.0, PI), [{}, {3: 0.02}, {2: 0.02, 5: -0.001}]),
    (rectangle(0.0, PI, 0.0, 1.5), [{4: 0.02}, {}, {2: 0.03}]),
])
def test_atom_terms_equal_full_k_series(domain, modes):
    # components with different last modes share one table, each its own prefix
    basis = SpectralBasis(domain, truncation_K=16)
    law = InitialLaw(tuple((1.0, admissible_from_perturbation(basis, m)) for m in modes))
    pts = _random_points(domain, 300, np.random.default_rng(7))
    assert _same_bits(_atom_terms(law, pts), _reference_atom_terms(law, _per_mode_stack(basis, pts)))


@pytest.mark.parametrize("domain", [interval(0.0, PI), rectangle(0.0, PI, 0.0, 1.5)])
def test_series_columns_equal_one_column_calls(domain):
    # numpy's add.reduce sums a one-column table of eight or more rows pairwise
    # and a wider one row by row; a column's bits must not depend on the width
    rng = np.random.default_rng(11)
    basis = SpectralBasis(domain, truncation_K=16)
    pts = _random_points(domain, 200, rng)
    H = basis.eigenfunction_matrix(pts)
    coeffs = rng.standard_normal(basis.K)  # k_top = 16
    columns = [_series(coeffs, H[:, [j]]) for j in range(len(pts))]
    assert _same_bits(_series(coeffs, H), np.concatenate(columns))


def _gamma(n):
    u = 2.0**-53  # unit roundoff of float64
    return n * u / (1.0 - n * u)


@pytest.mark.parametrize("domain,K", [
    (interval(0.0, PI), 16),
    (interval(0.0, PI), 64),
    (rectangle(0.0, PI, 0.0, 1.5), 16),
])
def test_series_within_the_recursive_summation_bound(domain, K):
    # adding m terms in order errs by at most gamma_{m-1} times the sum of their
    # magnitudes (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 4.2)
    rng = np.random.default_rng(K)
    basis = SpectralBasis(domain, truncation_K=K)
    pts = _random_points(domain, 200, rng)
    H = basis.eigenfunction_matrix(pts)
    coeff_sets = [ad.mu.coeffs for ad in standard_density_set(basis)]
    coeff_sets += [rng.standard_normal(K) for _ in range(4)]
    for coeffs in coeff_sets:
        for c in (coeffs, coeffs * basis.lambdas):
            k_top = _last_mode(c)
            terms = c[:k_top, None] * H[:k_top]
            exact = np.array([math.fsum(col) for col in terms.T])
            bound = _gamma(k_top - 1) * np.array([math.fsum(col) for col in np.abs(terms).T])
            assert np.all(np.abs(_series(c, H) - exact) <= bound)
