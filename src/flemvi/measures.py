"""State-space objects: empirical measures on the boundary-collapsed box,
cylinder observables, the collapse metric and the n-particle (pre-limit)
generator.

Boundary handling follows one convention everywhere: the whole boundary is a
single point of the state space, every eigenfunction vanishes there, and an
atom parked on the boundary therefore contributes zero to all pairings while
still counting in the atom total n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Domain
from .spectral import DensityMeasure, SpectralBasis

__all__ = [
    "EmpiricalMeasure",
    "CylinderFunction",
    "boundary_glued_metric",
    "pair",
    "cylinder_value",
    "pair_many",
    "cylinder_value_many",
    "discrete_generator",
]


def boundary_glued_metric(domain: Domain, x, y):
    """Collapse metric of two points (a float) or of two stacks (..., d):
    Euclidean distance capped by the sum of the two boundary distances; the
    collapsed boundary point is at its boundary distance from any interior
    point and 0 from itself.  A point neither on the boundary nor interior
    raises ValueError, x's first."""
    p, q = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    bdry = [domain.on_boundary(v) for v in (p, q)]
    for v, b in zip((p, q), bdry):
        bad = ~(b | domain.contains_many(v))
        if np.any(bad):
            raise ValueError(f"point {tuple(v[bad][0])} is not interior")
    dp, dq = (np.where(b, 0.0, domain.dist_to_boundary_many(v)) for v, b in zip((p, q), bdry))
    via_boundary, diff = dp + dq, p - q
    # np.linalg.norm's bits; a plain sum of squares differs in the last place
    euc = np.sqrt(np.vecdot(diff, diff))
    out = np.where(bdry[0] | bdry[1], via_boundary, np.minimum(euc, via_boundary))
    return float(out) if out.ndim == 0 else out


@dataclass(eq=False)
class EmpiricalMeasure:
    """Uniform measure (weight 1/n each) on n atoms in the closed box.

    ``positions`` keeps coordinates for every atom, including boundary ones
    (useful for logs); ``boundary_mask`` marks which atoms sit on the
    collapsed boundary and hence pair to zero.
    """

    domain: Domain
    positions: np.ndarray
    boundary_mask: np.ndarray = None

    def __post_init__(self):
        self.positions = np.atleast_2d(np.asarray(self.positions, dtype=float))
        if self.positions.shape[1] != self.domain.dimension:
            raise ValueError("atom coordinates do not match the domain dimension")
        if self.boundary_mask is None:
            self.boundary_mask = np.zeros(len(self.positions), dtype=bool)
        else:
            self.boundary_mask = np.asarray(self.boundary_mask, dtype=bool)
        if self.boundary_mask.shape != (len(self.positions),):
            raise ValueError("boundary mask length does not match atom count")
        interior = self.positions[~self.boundary_mask]
        if len(interior) and not np.all(self.domain.contains_many(interior)):
            raise ValueError("non-boundary atom outside the open domain")

    @property
    def n(self) -> int:
        return len(self.positions)

    @property
    def interior_positions(self) -> np.ndarray:
        return self.positions[~self.boundary_mask]


@dataclass(frozen=True)
class CylinderFunction:
    """Observable of the form phi applied to finitely many eigenfunction
    pairings of the measure.

    ``phi`` takes a stack of pairing rows (..., r) and returns each row's
    value, shape (...); ``grad`` and ``hess`` return each row's gradient
    vector (..., r) and Hessian matrix (..., r, r).  They must stay bounded
    on the reachable box of pairings (automatic for the polynomial builders
    below).
    """

    mode_indices: tuple
    phi: object
    grad: object
    hess: object
    name: str

    @property
    def n_modes(self) -> int:
        return len(self.mode_indices)

    @classmethod
    def constant(cls, value):
        """The constant observable: the polynomial of degree 0 in no pairing."""
        return cls.polynomial((), [(float(value), ())], name=f"const[{float(value):g}]")

    @classmethod
    def coordinate(cls, k):
        """The linear observable: pairing with eigenfunction k."""
        return cls.polynomial((k,), [(1.0, (1,))], name=f"pair[{k}]")

    @classmethod
    def polynomial(cls, mode_indices, terms, name=None):
        """phi(x) = sum of coef * prod_i x_i^p_i over ``terms``.

        ``terms`` is a list of (coef, powers) with one integer power per
        mode index.  Derivatives are exact (symbolic on the monomials).
        """
        mode_indices = tuple(int(k) for k in mode_indices)
        r = len(mode_indices)
        clean = []
        for coef, powers in terms:
            powers = tuple(int(p) for p in powers)
            if len(powers) != r:
                raise ValueError("each power tuple needs one entry per mode")
            if any(p < 0 for p in powers):
                raise ValueError("negative powers are not allowed")
            clean.append((float(coef), powers))

        def _d(terms_, i):
            """d/dx_i of a term list, dropping the terms without x_i."""
            return [(c * p[i], p[:i] + (p[i] - 1,) + p[i + 1:]) for c, p in terms_ if p[i]]

        def _eval(terms_, a):
            a = np.asarray(a, dtype=float)
            # exponents of a's full shape: a broadcast one sends power to its
            # square fast path, whose bits differ from a one-row call's
            cols = [c * np.multiply.reduce(a ** np.full(a.shape, p, float), axis=-1)
                    for c, p in terms_ if c != 0.0] or [np.zeros(a.shape[:-1])]
            if len(cols) == 1:  # math.fsum of one value x is x + 0.0, and of none 0.0
                return cols[0] + 0.0
            rows = zip(*(v.ravel().tolist() for v in cols))
            return np.array([math.fsum(t) for t in rows]).reshape(a.shape[:-1])

        firsts = [_d(clean, i) for i in range(r)]  # derivative terms, built once
        seconds = [[_d(di, j) for j in range(r)] for di in firsts]

        def _stacked(lists, a):  # each term list's _eval at a, along a new last axis;
            # C order, so that a sum over a row adds in a one-row call's order
            out = np.empty(np.shape(a)[:-1] + (len(lists),))
            for i, terms_ in enumerate(lists):
                out[..., i] = _eval(terms_, a)
            return out

        def phi(a):
            return _eval(clean, a)

        def grad(a):
            return _stacked(firsts, a)

        def hess(a):
            return _stacked(sum(seconds, []), a).reshape(np.shape(a)[:-1] + (r, r))

        if name is None:
            name = "poly[" + ",".join(str(k) for k in mode_indices) + "]"
        return cls(mode_indices, phi, grad, hess, name=name)


def pair(k, mu, basis: SpectralBasis = None) -> float:
    """Pairing of eigenfunction k with a measure.

    DensityMeasure: the stored coefficient.  EmpiricalMeasure: one row of
    ``pair_many`` (needs ``basis``).
    """
    if isinstance(mu, DensityMeasure):
        return mu.pair(k)
    return float(pair_many((k,), mu.positions[None], basis, mu.boundary_mask[None])[0, 0])


def cylinder_value(f: CylinderFunction, mu, basis: SpectralBasis = None) -> float:
    """Evaluate a cylinder observable on either kind of measure."""
    if isinstance(mu, DensityMeasure):
        return float(f.phi(np.array([mu.pair(k) for k in f.mode_indices])))
    return float(cylinder_value_many(f, mu.positions[None], basis, mu.boundary_mask[None])[0])


def pair_many(modes, positions, basis: SpectralBasis, boundary_mask=None) -> np.ndarray:
    """Pairing of each eigenfunction in ``modes`` with the empirical measure
    of each configuration of a stack (B, n, d), shape (B, len(modes)).

    ``boundary_mask`` (B, n) marks atoms on the collapsed boundary: they pair
    to zero but count in n, and only the other atoms must lie in the open
    domain.  One eigenfunction call per mode and one ``math.fsum`` per mode and
    configuration; the masked zeros leave the exact sum unchanged.
    """
    if basis is None:
        raise ValueError("pairing with an empirical measure needs a basis")
    B, n, d = positions.shape
    interior = np.ones((B, n), bool) if boundary_mask is None else ~np.asarray(boundary_mask, bool)
    if not np.all(basis.domain.contains_many(positions)[interior]):
        raise ValueError("non-boundary atom outside the open domain")
    flat = positions.reshape(B * n, d)
    sums = [math.fsum(row) for k in modes
            for row in np.where(interior, basis.eigenfunction(k, flat).reshape(B, n), 0.0).tolist()]
    return np.array(sums).reshape(len(modes), B).T / n


def cylinder_value_many(f: CylinderFunction, positions, basis: SpectralBasis,
                        boundary_mask=None) -> np.ndarray:
    """``cylinder_value`` on each configuration of a stack (B, n, d), with
    boundary atoms marked as in ``pair_many``, shape (B,)."""
    return np.array(f.phi(pair_many(f.mode_indices, positions, basis, boundary_mask)), float)


def _grad_sup_bound(basis: SpectralBasis, k) -> float:
    """Upper bound on the sup of |gradient of eigenfunction k| (exact in 1D)."""
    multi = basis.mode_indices[k - 1]
    sides = basis.domain.sides
    if basis.domain.dimension == 1:
        (j,) = multi
        (L,) = sides
        return math.sqrt(2.0 / L) * j * math.pi / L
    amp = math.sqrt(4.0 / (sides[0] * sides[1]))
    return amp * math.hypot(
        multi[0] * math.pi / sides[0], multi[1] * math.pi / sides[1]
    )


def discrete_generator(f: CylinderFunction, mu: EmpiricalMeasure, basis: SpectralBasis) -> float:
    """n-particle generator on a cylinder observable.

    First-order part: eigenvalue- and gradient-weighted sum of the
    observable's pairings.  Diffusive
    correction: (1/2n) sum over (i, j) of d2phi/dx_i dx_j times the pairing
    of atom-averaged eigenfunction-gradient dots.  Equals half the flat
    Laplacian of the
    lifted function on the n-fold product domain.
    """
    if mu.boundary_mask.any():
        raise ValueError("discrete generator needs every atom interior")
    args = np.array([pair(k, mu, basis) for k in f.mode_indices])
    g = np.asarray(f.grad(args), dtype=float)
    lams = np.array([basis.lambdas[k - 1] for k in f.mode_indices])
    first = math.fsum(g * lams * args)
    if f.n_modes == 0:
        return float(first)
    H = np.asarray(f.hess(args), dtype=float)
    grads = np.stack([basis.eigenfunction_gradient(k, mu.positions) for k in f.mode_indices])
    dots = np.einsum("ind,jnd->ij", grads, grads) / mu.n  # atom-averaged gradient dots
    second = math.fsum((H * dots).ravel()) / (2.0 * mu.n)
    return float(first + second)
