import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flemvi.geometry import interval, rectangle
from flemvi.measures import (
    CylinderFunction,
    EmpiricalMeasure,
    boundary_glued_metric,
    cylinder_value,
    cylinder_value_many,
    discrete_generator,
    pair,
    pair_many,
)
from flemvi.spectral import DensityMeasure

PI = math.pi
DOM = interval(0.0, PI)


# -- boundary-glued metric ----------------------------------------------------

def test_glued_metric_basics():
    assert boundary_glued_metric(DOM, [1.0], [1.0]) == 0.0
    assert boundary_glued_metric(DOM, [1.0], [1.5]) == pytest.approx(0.5)
    # all boundary points are identified with each other
    assert boundary_glued_metric(DOM, [0.0], [PI]) == 0.0
    # route through the glued boundary can beat the direct route
    direct = 2.9
    through = (PI - 3.0) + 0.1
    assert boundary_glued_metric(DOM, [3.0], [0.1]) == pytest.approx(
        min(direct, through)
    )


def test_glued_metric_rectangle():
    dom = rectangle(0.0, 2.0, 0.0, 1.0)
    x, y = [0.1, 0.5], [1.9, 0.5]
    direct = 1.8
    through = 0.1 + 0.1
    assert boundary_glued_metric(dom, x, y) == pytest.approx(min(direct, through))


interior_pts = st.floats(min_value=1e-3, max_value=PI - 1e-3)


@settings(max_examples=80, deadline=None)
@given(x=interior_pts, y=interior_pts, z=interior_pts)
def test_glued_metric_is_a_pseudometric(x, y, z):
    def d(a, b):
        return boundary_glued_metric(DOM, [a], [b])

    assert d(x, x) == 0.0
    assert d(x, y) == pytest.approx(d(y, x), abs=1e-14)
    assert d(x, y) >= 0.0
    assert d(x, z) <= d(x, y) + d(y, z) + 1e-12
    assert d(x, y) <= abs(x - y) + 1e-15


def _scalar_glued_metric(domain, x, y):
    """The per-pair formula of ``boundary_glued_metric`` before it took stacks."""
    def dist(p):
        if not domain.contains(p):
            raise ValueError(f"point {tuple(p)} is not interior")
        return float(np.minimum(p - domain.lo, domain.hi - p).min())

    x_bdry, y_bdry = bool(domain.on_boundary(x)), bool(domain.on_boundary(y))
    if x_bdry and y_bdry:
        return 0.0
    if x_bdry or y_bdry:
        return dist(np.asarray(y if x_bdry else x, dtype=float))
    p, q = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return min(float(np.linalg.norm(p - q)), dist(p) + dist(q))


@pytest.mark.parametrize("dim", [1, 2])
def test_glued_metric_stacks_equal_scalar_calls(dim):
    dom = DOM if dim == 1 else rectangle(0.0, PI, 0.0, 1.5)
    lo, hi = np.array(dom.lo), np.array(dom.hi)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(3)))
    x = lo + (hi - lo) * rng.random((20000, dim))
    y = lo + (hi - lo) * rng.random((20000, dim))
    # both on the boundary, one of them, and points within and beyond the 1e-12 tolerance
    x[:50, 0], y[:50, -1] = lo[0], hi[-1]
    x[50:100, -1] = hi[-1]
    y[100:150, 0] = lo[0] + 1e-12 * rng.random(50)
    x[150:200, 0] = hi[0] - 3e-12
    got = boundary_glued_metric(dom, x, y)
    want = [_scalar_glued_metric(dom, p, q) for p, q in zip(x, y)]
    assert np.array_equal(got, want)
    assert all(type(boundary_glued_metric(dom, p, q)) is float and boundary_glued_metric(dom, p, q) == w
               for p, q, w in zip(x[:250], y[:250], want))
    assert np.array_equal(got[:200:7], boundary_glued_metric(dom, x[:200:7][:, None], y[:200:7][:, None])[:, 0])


def test_glued_metric_rejects_an_exterior_point():
    dom = rectangle(0.0, 2.0, 0.0, 1.0)
    with pytest.raises(ValueError, match=r"point \(np.float64\(2.5\), np.float64\(0.5\)\) is not interior"):
        boundary_glued_metric(dom, [2.5, 0.5], [1.0, 0.5])
    with pytest.raises(ValueError, match=r"point \(np.float64\(1.0\), np.float64\(-0.1\)\)"):
        boundary_glued_metric(dom, np.array([[1.0, 0.5], [1.0, 0.2]]),
                              np.array([[1.0, 0.7], [1.0, -0.1]]))
    with pytest.raises(ValueError, match="not interior"):  # the boundary point does not excuse it
        boundary_glued_metric(dom, [0.0, 0.5], [3.0, 0.5])


# -- empirical measures and pairings ------------------------------------------

def test_empirical_measure_pairing(basis_1d, rng):
    pos = rng.uniform(0.2, 2.8, size=(7, 1))
    emp = EmpiricalMeasure(DOM, pos)
    assert emp.n == 7
    for k in (1, 2):
        manual = float(np.mean(basis_1d.eigenfunction(k, pos)))
        assert pair(k, emp, basis_1d) == pytest.approx(manual, abs=1e-14)


def test_density_measure_pairing(basis_1d):
    prof = DensityMeasure.stationary_profile(basis_1d)
    assert pair(1, prof, basis_1d) == pytest.approx(prof.pair(1), abs=1e-15)


def test_boundary_atom_requires_flag():
    with pytest.raises(ValueError):
        EmpiricalMeasure(DOM, [[0.0]])


def _reference_pair(k, mu, basis):
    """The scalar empirical pairing ``pair_many`` replaced: eigenfunction k
    summed over the interior atoms only, divided by the atom total n."""
    interior = mu.interior_positions
    if len(interior) == 0:
        return 0.0
    return float(math.fsum(basis.eigenfunction(k, interior)) / mu.n)


@pytest.mark.parametrize("dim", [1, 2])
def test_pair_many_with_mask_matches_the_scalar_reference(basis_1d, basis_2d, dim):
    basis = basis_1d if dim == 1 else basis_2d
    dom = basis.domain
    lo, hi = np.asarray(dom.lo), np.asarray(dom.hi)
    rng = np.random.default_rng(40 + dim)
    B, n = 30, 6
    pos = lo + (hi - lo) * rng.uniform(0.01, 0.99, size=(B, n, dim))
    mask = rng.random((B, n)) < 0.3
    mask[0] = True  # every atom on the boundary
    mask[1] = False
    # masked atoms exactly on a face, and outside the box
    pos[2, 0], mask[2, 0] = lo, True
    pos[3, 4], mask[3, 4] = hi, True
    pos[4, 1], mask[4, 1] = hi + 0.5, True
    pos[5, 3], mask[5, 3] = lo - 2.0, True
    modes = tuple(range(1, basis.K + 1))
    want = np.array([[_reference_pair(k, EmpiricalMeasure(dom, pos[b], mask[b]), basis)
                      for k in modes] for b in range(B)])
    got = pair_many(modes, pos, basis, mask)
    assert np.array_equal(got, want)
    assert np.all(got[0] == 0.0)
    # the scalar forms are one row of the stacked ones
    f = CylinderFunction.polynomial((2, 1), [(1.0, (2, 0)), (-0.5, (1, 1))])
    values = cylinder_value_many(f, pos, basis, mask)
    assert np.array_equal(values, [f.phi(want[b, [1, 0]]) for b in range(B)])
    for b in (0, 2, 4, 7):
        emp = EmpiricalMeasure(dom, pos[b], mask[b])
        assert pair(3, emp, basis) == want[b, 2]
        assert cylinder_value(f, emp, basis) == values[b]


def _reference_phi(terms, a):
    """The per-configuration polynomial ``phi`` that the stacked observation
    replaced: exponent arrays built on every call, reduced by ``np.prod``."""
    return float(math.fsum(c * np.prod(np.asarray(a, dtype=float) ** np.array(p))
                           for c, p in terms if c != 0.0))


@pytest.mark.parametrize("dim", [1, 2])
def test_cylinder_value_many_matches_the_per_configuration_reference(basis_1d, basis_2d, dim):
    basis = basis_1d if dim == 1 else basis_2d
    lo, hi = np.asarray(basis.domain.lo), np.asarray(basis.domain.hi)
    pos = lo + (hi - lo) * np.random.default_rng(50 + dim).uniform(0.01, 0.99, size=(40, 7, dim))
    observables = [
        ((1,), [(1.0, (2,))]),  # a single mode squared
        ((1, 2, 3), [(0.7, (1, 0, 0)), (-1.3, (0, 2, 1)), (0.0, (3, 3, 3)),
                     (2.5, (0, 0, 0)), (0.25, (3, 1, 2))]),
        ((2, 1), [(1.0, (2, 0)), (-0.5, (1, 1)), (0.0, (1, 0))]),
    ]
    for modes, terms in observables:
        f = CylinderFunction.polynomial(modes, terms)
        want = [_reference_phi(terms, [math.fsum(basis.eigenfunction(k, x)) / len(x)
                                       for k in modes]) for x in pos]
        assert np.array_equal(cylinder_value_many(f, pos, basis), want)


def test_stacked_phi_matches_the_one_row_phi():
    """The stacked ``phi`` against the one-row ``phi`` and against the
    per-configuration formula it replaced, bit for bit."""
    rng = np.random.default_rng(60)
    cases = [
        ((1,), [(1.0, (2,))]),  # x**2, which numpy's power may square
        *(((1, 2), [(1.0, (p, 3 - p))]) for p in range(4)),
        ((2,), [(0.0, (1,))]),  # only a zero coefficient
        # several terms, summed by fsum across terms, with zero coefficients among them
        ((1, 2, 3), [(0.7, (1, 0, 0)), (0.0, (3, 3, 3)), (-1.3, (0, 2, 1)), (2.5, (0, 0, 0)),
                     (1e-17, (0, 0, 0)), (0.25, (3, 1, 2))]),
        ((3,), [(1.0, (1,))]),  # the coordinate builder's polynomial
    ]
    observables = [(CylinderFunction.polynomial(modes, terms),
                    lambda a, t=terms: _reference_phi(t, a)) for modes, terms in cases]
    observables += [(CylinderFunction.constant(2.5), lambda a: 2.5),
                    (CylinderFunction.coordinate(3), lambda a: _reference_phi([(1.0, (1,))], a))]
    for f, reference in observables:
        a = rng.uniform(-1.5, 1.5, size=(6000, f.n_modes))
        a[::7] = 0.0
        a[3::11] = -0.0
        want = np.array([reference(row) for row in a])
        got = f.phi(a)
        assert got.shape == (6000,)
        assert got.tobytes() == want.tobytes()
        assert np.array([f.phi(row) for row in a]).tobytes() == want.tobytes()
        assert f.phi(a.reshape(60, 100, -1)).tobytes() == want.tobytes()


def test_pair_many_rejects_an_unmasked_atom_outside(basis_1d):
    pos = np.array([[[0.5], [4.0]], [[1.0], [0.0]]])
    for mask in (None, np.array([[True, False], [False, True]]),
                 np.array([[False, True], [False, False]])):
        with pytest.raises(ValueError, match="outside the open domain"):
            pair_many((1,), pos, basis_1d, mask)
    got = pair_many((1,), pos, basis_1d, np.array([[False, True], [False, True]]))
    assert got.shape == (2, 1)
    with pytest.raises(ValueError, match="needs a basis"):
        pair_many((1,), pos[:1, :1], None)


# -- cylinder functions --------------------------------------------------------

def test_constant_cylinder():
    one = CylinderFunction.constant(1.0)
    assert one.n_modes == 0
    assert one.phi(np.zeros(0)) == 1.0


def test_coordinate_cylinder(basis_1d):
    f = CylinderFunction.coordinate(2)
    emp = EmpiricalMeasure(DOM, [[0.7], [1.9]])
    assert cylinder_value(f, emp, basis_1d) == pytest.approx(
        pair(2, emp, basis_1d), abs=1e-15
    )


def test_polynomial_cylinder_value(basis_1d):
    f = CylinderFunction.polynomial((1, 2), [(2.0, (1, 0)), (1.0, (0, 2))])
    emp = EmpiricalMeasure(DOM, [[0.7], [1.9], [2.4]])
    p1 = pair(1, emp, basis_1d)
    p2 = pair(2, emp, basis_1d)
    assert cylinder_value(f, emp, basis_1d) == pytest.approx(
        2.0 * p1 + p2 * p2, abs=1e-14
    )


@settings(max_examples=40, deadline=None)
@given(
    a=st.floats(min_value=-2, max_value=2),
    b=st.floats(min_value=-2, max_value=2),
    x=st.floats(min_value=-0.9, max_value=0.9),
    y=st.floats(min_value=-0.9, max_value=0.9),
)
def test_polynomial_gradient_matches_fd(a, b, x, y):
    f = CylinderFunction.polynomial(
        (1, 2), [(a, (2, 0)), (b, (1, 1)), (1.0, (0, 3))]
    )
    pt = np.array([x, y])
    h = 1e-6
    grad = f.grad(pt)
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        fd = (f.phi(pt + e) - f.phi(pt - e)) / (2 * h)
        assert grad[j] == pytest.approx(fd, abs=5e-6)


@pytest.mark.parametrize("terms", [[(1.0, (1, 0))], [(1.0, (2, 0)), (0.5, (1, 1)), (-0.3, (0, 3))],
                                   [(0.7, (3, 2)), (-1.1, (2, 0)), (2.0, (0, 0))]])
def test_polynomial_stacks_keep_the_one_row_bits(terms):
    f = CylinderFunction.polynomial((1, 2), terms)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(4)))
    a = rng.uniform(-1.5, 1.5, size=(4, 6, 2))
    for fn, shape in ((f.phi, ()), (f.grad, (2,)), (f.hess, (2, 2))):
        got = fn(a)
        assert got.shape == a.shape[:-1] + shape
        for idx in np.ndindex(a.shape[:-1]):
            assert np.array_equal(got[idx], fn(a[idx]))
    assert f.grad(a).flags.c_contiguous  # a row sum then takes the one-row order
    const = CylinderFunction.constant(2.0)
    assert const.grad(np.zeros(0)).shape == (0,) and const.hess(np.zeros(0)).shape == (0, 0)
    assert const.grad(np.zeros((3, 0))).shape == (3, 0)


def test_discrete_generator_vs_brute_force(basis_1d):
    f = CylinderFunction.polynomial((1,), [(1.0, (2,))])
    emp = EmpiricalMeasure(DOM, [[0.9], [1.7], [2.3]])
    lhs = discrete_generator(f, emp, basis_1d)

    h = 1e-4
    flat = emp.positions.ravel()

    def val(v):
        return cylinder_value(f, EmpiricalMeasure(DOM, v.reshape(-1, 1)), basis_1d)

    lap = 0.0
    for j in range(flat.size):
        e = np.zeros(flat.size)
        e[j] = h
        lap += (val(flat + e) - 2 * val(flat) + val(flat - e)) / (h * h)
    assert lhs == pytest.approx(0.5 * lap, rel=1e-5)
