"""Bounded domains (interval / axis-aligned rectangle) with boundary queries.

Only shapes with closed-form Dirichlet eigenbases are supported, so every
series object downstream is exactly computable.  Points are plain float
tuples / numpy rows of length ``dimension``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Domain", "interval", "rectangle"]


@dataclass(frozen=True)
class Domain:
    """Open box ``prod_i (lo_i, hi_i)`` in dimension 1 or 2."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise ValueError("lo/hi length mismatch")
        if len(self.lo) not in (1, 2):
            raise ValueError("only dimensions 1 and 2 are supported")
        for a, b in zip(self.lo, self.hi):
            if not (a < b):
                raise ValueError(f"need lo < hi in every coordinate, got ({a}, {b})")

    @property
    def dimension(self) -> int:
        return len(self.lo)

    @property
    def sides(self) -> tuple[float, ...]:
        return tuple(b - a for a, b in zip(self.lo, self.hi))

    # -- point queries ------------------------------------------------------

    def _as_point(self, x) -> np.ndarray:
        p = np.atleast_1d(np.asarray(x, dtype=float))
        if p.shape != (self.dimension,):
            raise ValueError(f"point of dimension {p.shape} on a {self.dimension}-d domain")
        return p

    def contains(self, x) -> bool:
        """True iff x lies in the open domain (boundary excluded)."""
        p = self._as_point(x)
        return bool(np.all(p > self.lo) and np.all(p < self.hi))

    def contains_many(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        return np.all((pts > lo) & (pts < hi), axis=-1)

    def dist_to_boundary_many(self, pts: np.ndarray) -> np.ndarray:
        """Distance of each point to the boundary: min over the coordinate gaps."""
        pts = np.asarray(pts, dtype=float)
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        return np.minimum(pts - lo, hi - pts).min(axis=-1)

    def on_boundary(self, x, tol: float = 1e-12):
        """Whether x, or each point of a stack (..., d), is within tol of a face of the closed box."""
        p = np.asarray(x, dtype=float) if np.ndim(x) > 1 else self._as_point(x)
        lo, hi = np.asarray(self.lo), np.asarray(self.hi)
        inside_closed = np.all((p >= lo - tol) & (p <= hi + tol), axis=-1)
        touches = np.any((np.abs(p - lo) <= tol) | (np.abs(p - hi) <= tol), axis=-1)
        return inside_closed & touches

    def project_to_boundary(self, x_prev, x_next) -> np.ndarray:
        """Intersection of the segment [x_prev, x_next] with the boundary, nearest x_prev.

        Requires x_prev interior and x_next outside the open domain.
        """
        p = self._as_point(x_prev)
        q = self._as_point(x_next)
        if not self.contains(p):
            raise ValueError("x_prev must be interior")
        if self.contains(q):
            raise ValueError("x_next must not be interior")
        seg = q - p
        theta = np.inf
        face_axis, face_value = 0, self.lo[0]
        for i in range(self.dimension):
            if seg[i] < 0.0:
                t = (self.lo[i] - p[i]) / seg[i]
                if t < theta:
                    theta, face_axis, face_value = t, i, self.lo[i]
            elif seg[i] > 0.0:
                t = (self.hi[i] - p[i]) / seg[i]
                if t < theta:
                    theta, face_axis, face_value = t, i, self.hi[i]
        theta = min(max(theta, 0.0), 1.0)
        hit = p + theta * seg
        hit[face_axis] = face_value  # land exactly on the face
        return hit


def interval(a: float, b: float) -> Domain:
    return Domain((float(a),), (float(b),))


def rectangle(a1: float, b1: float, a2: float, b2: float) -> Domain:
    return Domain((float(a1), float(a2)), (float(b1), float(b2)))
