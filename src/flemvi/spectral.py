"""Dirichlet spectral toolbox on a box domain.

Eigenpairs of half the Laplacian with zero boundary values, the
survival-normalized heat evolution of densities, and the limiting generator
acting on cylinder observables.

Everything is closed-form-plus-quadrature: sine eigenbases make every series
coefficient exact, and integrals use a composite Gauss-Legendre rule (256
nodes per axis) so quadrature error sits far below the stated tolerances.
A density's series is added in mode order, one eigenfunction row at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.polynomial.legendre import leggauss

from .geometry import Domain

__all__ = [
    "SpectralBasis",
    "DensityMeasure",
    "survival_split",
    "initial_decay_rate",
    "flow",
    "flow_generator",
    "diffusion_part",
    "replenishment_part",
    "curvature_mass_routes",
]

# back-evolved coefficients beyond this magnitude are treated as blow-up
BACKWARD_COEFF_GUARD = 1e12

_QUAD_PANELS = 8
_QUAD_NODES_PER_PANEL = 32  # 8 x 32 = 256 nodes per axis


def _last_mode(coeffs):
    """1-based index of the last nonzero coefficient (1 if there is none)."""
    return max(coeffs.nonzero()[0].tolist(), default=0) + 1  # a list's max is the fastest


def _series(coeffs, H):
    """The series of ``coeffs`` over a table ``H`` of at least k_top =
    ``_last_mode(coeffs)`` eigenfunction rows, added in mode order k = 1..k_top one
    row at a time, so that a column has the same bits whatever the table's width
    (numpy's reductions sum a one-column table pairwise, BLAS in a CPU-dependent
    order)."""
    total = coeffs[0] * H[0]
    for k in range(1, _last_mode(coeffs)):
        total += coeffs[k] * H[k]
    return total


def _axis_rule(a, b):
    """Composite Gauss-Legendre nodes/weights on (a, b)."""
    x, w = leggauss(_QUAD_NODES_PER_PANEL)
    edges = np.linspace(a, b, _QUAD_PANELS + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x).ravel()
    weights = (half[:, None] * w).ravel()
    return nodes, weights


def _tensor_points(axes):
    """Tensor product of per-axis coordinate arrays as (N, d) points, the last
    axis varying fastest."""
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


class SpectralBasis:
    """Truncated Dirichlet eigenbasis of (1/2)-Laplacian on a box.

    Modes are sorted by descending eigenvalue (ties: ascending multi-index)
    and normalized in L2 with the ground mode positive.  In 2D the candidate
    set is the smallest square tensor grid holding ``truncation_K`` modes.
    """

    def __init__(self, domain: Domain, truncation_K: int):
        if truncation_K < 1:
            raise ValueError("need at least one mode")
        self.domain = domain
        self.K = int(truncation_K)
        if domain.dimension == 1:
            candidates = [(k,) for k in range(1, self.K + 1)]
        else:
            side = math.isqrt(self.K - 1) + 1
            candidates = [
                (j, k)
                for j in range(1, side + 1)
                for k in range(1, side + 1)
            ]
        lams = [self._eigenvalue(m) for m in candidates]
        order = sorted(range(len(candidates)), key=lambda i: (-lams[i], candidates[i]))
        order = order[: self.K]
        self.mode_indices = [candidates[i] for i in order]
        self.lambdas = np.array([lams[i] for i in order])
        self.unit_integrals = np.array(
            [self._unit_integral(m) for m in self.mode_indices]
        )

    # -- closed forms --------------------------------------------------------

    def _eigenvalue(self, multi):
        s = sum((j / L) ** 2 for j, L in zip(multi, self.domain.sides))
        return -0.5 * math.pi**2 * s

    def _unit_integral(self, multi):
        # per-axis integral of sqrt(2/L) sin(j pi (x-a)/L): zero for even j
        val = 1.0
        for j, L in zip(multi, self.domain.sides):
            if j % 2 == 0:
                return 0.0
            val *= 2.0 * math.sqrt(2.0 * L) / (j * math.pi)
        return val

    def _as_points(self, pts):
        pts = np.asarray(pts, dtype=float)
        if self.domain.dimension == 1:
            return pts.reshape(-1, 1)
        if pts.ndim == 1:
            return pts.reshape(1, 2)
        return pts

    def _axis_dsin(self, j, axis, x):
        a = self.domain.lo[axis]
        L = self.domain.sides[axis]
        return math.sqrt(2.0 / L) * (j * math.pi / L) * np.cos(j * math.pi * (x - a) / L)

    def _check_mode(self, k):
        if not 1 <= k <= self.K:
            raise ValueError(f"mode {k} out of range 1..{self.K}")

    # -- evaluation ----------------------------------------------------------

    def eigenfunction(self, k, pts):
        """Eigenfunction k (1-based, sorted order) at points, shape (N,)."""
        self._check_mode(k)
        pts = self._as_points(pts)
        out = np.ones(len(pts))
        for axis, j in enumerate(self.mode_indices[k - 1]):
            out = out * self._axis_table(axis, [j], pts[:, axis])[0]
        return out

    def eigenfunction_gradient(self, k, pts):
        """Gradient of eigenfunction k at points, shape (N, d)."""
        self._check_mode(k)
        pts = self._as_points(pts)
        d = self.domain.dimension
        multi = self.mode_indices[k - 1]
        sins = [self._axis_table(ax, [j], pts[:, ax])[0] for ax, j in enumerate(multi)]
        grad = np.empty((len(pts), d))
        for ax, j in enumerate(multi):
            g = self._axis_dsin(j, ax, pts[:, ax])
            for other in range(d):
                if other != ax:
                    g = g * sins[other]
            grad[:, ax] = g
        return grad

    def _axis_table(self, axis, js, x):
        """The 1-D sine factors sqrt(2/L) sin(j pi (x - a) / L) of ``axis`` for each
        j of ``js`` at its coordinates x, shape (len(js), N)."""
        a = self.domain.lo[axis]
        L = self.domain.sides[axis]
        table = np.multiply.outer(np.multiply(js, math.pi), x - a)
        table /= L
        np.sin(table, out=table)
        table *= math.sqrt(2.0 / L)
        return table

    def eigenfunction_matrix(self, pts, k_top=None):
        """Eigenfunctions 1..k_top (default K) at points, shape (k_top, N);
        equals stacking ``eigenfunction(k, pts)`` for those k bit for bit."""
        k_top = self.K if k_top is None else k_top
        self._check_mode(k_top)
        pts = self._as_points(pts)
        rows = np.array(self.mode_indices[:k_top]) - 1  # (k_top, d) table rows
        tables = [self._axis_table(ax, np.arange(1, rows[:, ax].max() + 2), pts[:, ax])
                  for ax in range(self.domain.dimension)]
        if len(tables) == 1:
            return tables[0]  # 1-D modes are j = 1..k_top in order
        out = np.empty((k_top, len(pts)))
        for k, (r1, r2) in enumerate(rows):
            np.multiply(tables[0][r1], tables[1][r2], out=out[k])
        return out

    # -- quadrature ----------------------------------------------------------

    @cached_property
    def _quad_rule(self):
        """The tensor rule's points (N, d) and weights (N,), built on first use."""
        nodes, weights = zip(*(_axis_rule(a, b) for a, b in zip(self.domain.lo, self.domain.hi)))
        return _tensor_points(nodes), _tensor_points(weights).prod(axis=1)

    quad_points = property(lambda self: self._quad_rule[0])
    quad_weights = property(lambda self: self._quad_rule[1])

    def integrate(self, fn):
        """Quadrature over the domain of a callable evaluated on quad_points."""
        vals = np.asarray(fn(self.quad_points), dtype=float)
        return float(math.fsum(vals * self.quad_weights))


@dataclass
class DensityMeasure:
    """Absolutely continuous measure, stored by spectral coefficients.

    ``coeffs[k-1]`` is the pairing of eigenfunction k with the density.
    """

    basis: SpectralBasis
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.shape != (self.basis.K,):
            raise ValueError("coefficient vector does not match basis truncation")

    @classmethod
    def stationary_profile(cls, basis):
        """Ground mode normalized to mass one — the flow's fixed point."""
        coeffs = np.zeros(basis.K)
        coeffs[0] = 1.0 / basis.unit_integrals[0]
        return cls(basis, coeffs)

    def density(self, pts):
        """Density values at points, shape (N,)."""
        return _series(self.coeffs, self.basis.eigenfunction_matrix(pts, _last_mode(self.coeffs)))

    def half_laplacian(self, pts):
        """(1/2)-Laplacian of the density via the eigen-relation, shape (N,)."""
        H = self.basis.eigenfunction_matrix(pts, _last_mode(self.coeffs))
        return _series(self.coeffs * self.basis.lambdas, H)

    def mass(self):
        return float(math.fsum(self.coeffs * self.basis.unit_integrals))

    def pair(self, k):
        """Pairing of eigenfunction k (1-based) with the measure."""
        self.basis._check_mode(k)
        return float(self.coeffs[k - 1])

    def cdf_1d(self, x):
        """Cumulative mass on an interval domain (closed form per mode)."""
        if self.basis.domain.dimension != 1:
            raise ValueError("cdf_1d is only defined on interval domains")
        a = self.basis.domain.lo[0]
        L = self.basis.domain.sides[0]
        scalar = np.ndim(x) == 0
        x = np.asarray(x, dtype=float).ravel()
        out = np.zeros_like(x)
        for coeff, (j,) in zip(self.coeffs, self.basis.mode_indices):
            if coeff == 0.0:
                continue
            amp = coeff * math.sqrt(2.0 / L) * L / (j * math.pi)
            out = out + amp * (1.0 - np.cos(j * math.pi * (x - a) / L))
        return float(out[0]) if scalar else out


def survival_split(mu, t):
    """Heat-evolve a measure for time t >= -1 and split off its survival mass.

    Returns (z, v): the mass z of the decayed coefficients (the survival
    mass, for a unit-mass mu) and the probability measure v with the decayed
    coefficients over z.  Backward evolution divides by the decay
    factors and is rejected once any coefficient passes the overflow guard;
    a z that is not positive (the zero measure, say) is rejected too.
    """
    if t < -1:
        raise ValueError("backward evolution is only supported down to t = -1")
    with np.errstate(over="ignore", invalid="ignore"):
        # zero coefficients stay zero even where the backward factor overflows
        u = np.where(mu.coeffs != 0.0, np.exp(mu.basis.lambdas * t) * mu.coeffs, 0.0)
    if t < 0 and (not np.all(np.isfinite(u)) or np.max(np.abs(u)) > BACKWARD_COEFF_GUARD):
        raise ValueError("backward evolution exceeded the coefficient guard")
    z = math.fsum(u * mu.basis.unit_integrals)
    if z <= 0:
        raise ValueError(f"evolved mass {z!r} is not positive")
    return z, DensityMeasure(mu.basis, u / z)


def initial_decay_rate(mu):
    """Initial decay rate of the survival normalizer of a unit-mass measure.

    Spectral form: the eigenvalue-weighted sum of coefficient times unit
    integral; equals the integral of the density's half-Laplacian.
    """
    return math.fsum(mu.basis.lambdas * mu.coeffs * mu.basis.unit_integrals)


def flow(mu, t):
    """Survival-normalized heat evolution after time t >= -1: the measure
    of ``survival_split``."""
    return survival_split(mu, t)[1]


def _grad_at(f, mu):
    """Gradient of a cylinder observable's outer map at the pairings of mu."""
    args = np.array([mu.pair(k) for k in f.mode_indices])
    return np.asarray(f.grad(args), dtype=float), args


def diffusion_part(f, mu):
    """Diffusive part: eigenvalue- and gradient-weighted sum of the
    observable's pairings."""
    g, args = _grad_at(f, mu)
    lams = np.array([mu.basis.lambdas[k - 1] for k in f.mode_indices])
    return float(math.fsum(g * lams * args))


def replenishment_part(f, mu):
    """Mass-replenishment part: minus the initial decay rate times the
    gradient-weighted sum of the observable's pairings."""
    g, args = _grad_at(f, mu)
    return float(-initial_decay_rate(mu) * math.fsum(g * args))


def flow_generator(f, mu):
    """Generator of the normalized flow on a cylinder observable.

    Value: gradient-weighted sum of pairings times (eigenvalue minus the
    initial decay rate); equals the
    time derivative of f(flow(mu, t)) at t = 0, and diffusion_part + replenishment_part.
    """
    g, args = _grad_at(f, mu)
    zp = initial_decay_rate(mu)
    lams = np.array([mu.basis.lambdas[k - 1] for k in f.mode_indices])
    return float(math.fsum(g * args * (lams - zp)))


def curvature_mass_routes(mu):
    """Two routes to the integral of the density's half-Laplacian.

    lhs: eigenvalue-weighted spectral sum against the unit integrals.
    rhs: quadrature of the half-Laplacian.
    Both equal initial_decay_rate for a unit-mass measure.
    """
    lhs = math.fsum(mu.basis.lambdas * mu.coeffs * mu.basis.unit_integrals)
    rhs = mu.basis.integrate(mu.half_laplacian)
    return float(lhs), float(rhs)
