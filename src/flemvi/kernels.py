"""Admissible initial densities, finite-mixture initial laws, and the
relocation kernels driving boundary-triggered jumps.

The admissible class consists of probability densities comparable to the
ground mode from above and below (constant c), whose negative half-Laplacian
is likewise comparable to the ground mode.  Finite mixtures of such densities
make every limit-side integral an exact finite sum plus quadrature.

The configuration-dependent kernel builds, for a relocating particle, the
mixture over components reweighted by the likelihood of the *other* particle
positions and by the mean curvature ratio of those positions; the result is
renormalized to integrate to exactly one (its pre-normalization mass tends
to one as n grows).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .spectral import DensityMeasure, SpectralBasis, _last_mode, _series, _tensor_points, initial_decay_rate

__all__ = [
    "AdmissibleDensity",
    "InitialLaw",
    "KernelKind",
    "RelocationKernel",
    "admissible_from_perturbation",
    "sample_ground_mode",
    "sample_initial_configuration",
    "sample_relocation",
    "sample_relocations",
    "mixture_terms",
    "sample_curvature_weighted",
]

_MAX_PROPOSALS = 10**6
_U = 2.0**-53  # the unit roundoff of a double
_C_CAP = 10.0  # largest comparison constant admissible_from_perturbation finds


@dataclass(frozen=True)
class AdmissibleDensity:
    """A validated member of the admissible class.

    ``mu`` is the probability density (spectral form), ``c`` the comparison
    constant, ``curvature_mass`` the total mass of the negative half-Laplacian
    (equal to minus the initial decay rate of the survival normalizer).
    """

    mu: DensityMeasure
    c: float
    curvature_mass: float

    @property
    def basis(self) -> SpectralBasis:
        return self.mu.basis

    def sample(self, rng, size):
        """i.i.d. draws by rejection against the ground-mode envelope."""
        return _rejection_sample(rng, size, self.basis, self.mu.density, self.c)

    def sample_neg_half_laplacian(self, rng, size):
        """i.i.d. draws from the normalized negative half-Laplacian."""
        return _rejection_sample(rng, size, self.basis, lambda pts: -self.mu.half_laplacian(pts),
                                 -self.basis.lambdas[0] * self.c)


def _ground_mode_points(basis: SpectralBasis, u):
    """The ground-mode points of uniforms u (N, d), by per-axis inversion."""
    u = np.maximum(u, 2.0**-54)  # 0 would map onto the wall lo
    out = np.empty(u.shape)
    for ax in range(u.shape[1]):
        a = basis.domain.lo[ax]
        L = basis.domain.sides[ax]
        out[:, ax] = a + (L / math.pi) * np.arccos(1.0 - 2.0 * u[:, ax])
    return out


def sample_ground_mode(basis: SpectralBasis, rng, size):
    """i.i.d. draws from the normalized ground mode, by per-axis inversion."""
    return _ground_mode_points(basis, rng.random((size, basis.domain.dimension)))


def _proposal_count(want, basis, envelope_factor):
    """Proposals of a ``_rejection_sample`` round that wants ``want`` more draws."""
    return min(max(64, int(want * envelope_factor * basis.unit_integrals[0] * 1.2)), 1 << 17)


def _rejection_sample(rng, size, basis, target, envelope_factor):
    """Draw from ``target`` (a density up to scale) under the envelope
    envelope_factor times the ground mode, proposing from it normalized."""
    out = np.empty((size, basis.domain.dimension))
    got = 0
    used = 0
    while got < size:
        want = size - got
        batch = _proposal_count(want, basis, envelope_factor)
        if used + batch > _MAX_PROPOSALS + size * 64:
            raise RuntimeError(
                f"rejection sampler exhausted {used} proposals for {size} draws"
            )
        props = sample_ground_mode(basis, rng, batch)
        used += batch
        accept = rng.random(batch) * (envelope_factor * basis.eigenfunction(1, props)) < target(props)
        take = props[accept][:want]
        out[got : got + len(take)] = take
        got += len(take)
    return out


def admissible_from_perturbation(basis, higher_coeffs, c=None):
    """Density proportional to the ground mode plus higher-mode terms, checked
    admissible on a uniform interior grid.

    ``higher_coeffs`` maps mode indices >= 2 to amplitudes.  With c=None the
    smallest valid constant is found on the grid (with a tiny safety margin)
    and rejected if it exceeds ``_C_CAP``; a given c is checked against every
    bound there, raising with the violation count.  The grid is 512 points per
    axis; its eigenfunction table is built from one sine table per axis, in chunks.
    """
    raw = np.zeros(basis.K)
    raw[0] = 1.0
    for k, a_k in higher_coeffs.items():
        k = int(k)
        if not 2 <= k <= basis.K:
            raise ValueError(f"perturbation mode {k} out of range 2..{basis.K}")
        raw[k - 1] = float(a_k)
    Z = math.fsum(raw * basis.unit_integrals)
    if Z <= 0:
        raise ValueError("perturbation destroys the positivity of the total mass")
    d = DensityMeasure(basis, raw / Z)
    axes = [np.linspace(a, b, 512 + 2)[1:-1] for a, b in zip(basis.domain.lo, basis.domain.hi)]
    rows = np.array(basis.mode_indices[:_last_mode(d.coeffs)]) - 1  # (k_top, dimension)
    tables = [basis._axis_table(ax, np.arange(1, rows[:, ax].max() + 2), x) for ax, x in enumerate(axes)]
    step = 512 if len(axes) == 1 else 32  # first coordinates per chunk of at most 16k points
    parts = []  # per chunk, the ground mode and DensityMeasure.density's and .half_laplacian's series
    for s in range(0, 512, step):
        H = tables[0][rows[:, 0], s:s + step]  # eigenfunction_matrix's table on the chunk
        if len(axes) == 2:
            H = (H[:, :, None] * tables[1][rows[:, 1], None, :]).reshape(len(rows), -1)
        parts.append((H[0], _series(d.coeffs, H), -_series(d.coeffs * basis.lambdas, H)))
    neg_lam1 = -basis.lambdas[0]
    pinned = c is not None
    if not pinned:  # the chunks' extrema reduce as the whole grid's (NaN included)
        if (np.min([(dens.min(), neglap.min()) for _, dens, neglap in parts], axis=0) <= 0.0).any():
            raise ValueError("density or its curvature loses positivity")
        c_min = max(np.max([((dens / h1).max(), (h1 / dens).max(), (neglap / (neg_lam1 * h1)).max(),
                             ((neg_lam1 * h1) / neglap).max()) for h1, dens, neglap in parts],
                           axis=0).tolist())
        c = c_min * (1.0 + 1e-9)
        if c > _C_CAP:
            raise ValueError(
                f"smallest admissible constant {c:.4f} exceeds the cap {_C_CAP:g}"
            )
    c = float(c)
    if not c > 1.0:
        raise ValueError("comparison constant must exceed 1")
    mass = d.mass()
    if abs(mass - 1.0) > 1e-8:
        raise ValueError(f"density mass {mass!r} is not 1 within 1e-8")
    if pinned:  # a found c holds every bound by its margin, so the scan could not fire
        slack = 1e-12
        bad = np.concatenate([
            (dens < h1 / c - slack)
            | (dens > c * h1 + slack)
            | (neglap < neg_lam1 * h1 / c - slack)
            | (neglap > neg_lam1 * c * h1 + slack)
            for h1, dens, neglap in parts])
        if bad.any():
            idx = np.flatnonzero(bad)
            raise ValueError(
                f"admissibility bounds violated at {len(idx)} of {len(bad)} grid "
                f"points for c={c:g} (first at {tuple(_tensor_points(axes)[idx[0]])})"
            )
    K = -initial_decay_rate(d)
    if not K > 0.0:
        raise ValueError(f"curvature mass {K!r} is not positive")
    return AdmissibleDensity(d, c, K)


@dataclass(frozen=True)
class InitialLaw:
    """Finite mixture over admissible densities; weights normalized."""

    components: tuple

    def __post_init__(self):
        comps = tuple((float(w), ad) for w, ad in self.components)
        if not comps:
            raise ValueError("mixture needs at least one component")
        if any(w <= 0 for w, _ in comps):
            raise ValueError("mixture weights must be positive")
        total = math.fsum(w for w, _ in comps)
        comps = tuple((w / total, ad) for w, ad in comps)
        first = comps[0][1].basis
        if any(ad.basis is not first for _, ad in comps[1:]):
            raise ValueError("all components must share one basis")
        object.__setattr__(self, "components", comps)

    @classmethod
    def single(cls, ad: AdmissibleDensity):
        return cls(((1.0, ad),))

    @property
    def basis(self) -> SpectralBasis:
        return self.components[0][1].basis

    @property
    def weights(self):
        return np.array([w for w, _ in self.components])

    def pick_component(self, rng) -> int:
        return int(rng.choice(len(self.components), p=self.weights))


class KernelKind(enum.Enum):
    UNIFORM_SURVIVOR = "uniform_survivor"
    GROUND_MODE = "ground_mode"
    MIXTURE_REWEIGHTED = "mixture_reweighted"


@dataclass(frozen=True)
class RelocationKernel:
    """Where a boundary-hitting particle reappears.

    UNIFORM_SURVIVOR copies a uniformly chosen other atom; GROUND_MODE draws
    from the normalized ground mode regardless of the configuration;
    MIXTURE_REWEIGHTED draws from the configuration-reweighted mixture.
    GROUND_MODE needs the basis and MIXTURE_REWEIGHTED the law (ValueError
    without it); a kind ignores what it does not need.
    """

    kind: KernelKind
    basis: SpectralBasis = None
    law: InitialLaw = None

    def __post_init__(self):
        object.__setattr__(self, "kind", KernelKind(self.kind))  # ValueError if unknown
        need = {KernelKind.GROUND_MODE: "basis", KernelKind.MIXTURE_REWEIGHTED: "law"}.get(self.kind)
        if need and getattr(self, need) is None:
            raise ValueError(f"{self.kind.value} relocation needs a {need}")

    @classmethod
    def uniform_survivor(cls):
        return cls(KernelKind.UNIFORM_SURVIVOR)

    @classmethod
    def ground_mode(cls, basis: SpectralBasis):
        return cls(KernelKind.GROUND_MODE, basis=basis)

    @classmethod
    def mixture_reweighted(cls, law: InitialLaw):
        return cls(KernelKind.MIXTURE_REWEIGHTED, basis=law.basis, law=law)

    @property
    def reads_others(self):
        """Whether a draw reads the other atoms: survivor-copy, and the
        reweighted mixture of more than one component."""
        return self.kind is KernelKind.UNIFORM_SURVIVOR or (
            self.kind is KernelKind.MIXTURE_REWEIGHTED and len(self.law.components) > 1)


def _check_population(kernel: RelocationKernel, n):
    """Raise ValueError if ``kernel``'s draws read the other atoms and n < 2."""
    if n < 2 and kernel.reads_others:
        raise ValueError(f"{kernel.kind.value} relocation is undefined with fewer than two particles")


def _atom_terms(law: InitialLaw, pts):
    """log d_m(z) and (-1/2 Laplacian d_m)(z) / d_m(z) per component m and
    point z, shape (2, components, N), from one eigenfunction table."""
    H = law.basis.eigenfunction_matrix(pts, max(_last_mode(ad.mu.coeffs) for _, ad in law.components))
    terms = np.empty((2, len(law.components), H.shape[1]))
    for m, (_, ad) in enumerate(law.components):
        # the series of DensityMeasure.density and .half_laplacian
        dens = _series(ad.mu.coeffs, H)
        neglap = -_series(ad.mu.coeffs * law.basis.lambdas, H)
        terms[0, m] = np.log(dens)
        terms[1, m] = neglap / dens
    return terms


def mixture_terms(kernel: RelocationKernel, pts):
    """The per-atom terms of ``kernel``'s component weights (see ``sample_relocation``)
    at the points ``pts`` (..., d), shape (2, components, ...), from one
    ``_atom_terms`` call; None, with pts unread, when its draw does not use them."""
    if kernel.kind is KernelKind.MIXTURE_REWEIGHTED and kernel.reads_others:
        terms = _atom_terms(kernel.law, pts.reshape(-1, pts.shape[-1]))
        return terms.reshape(terms.shape[:2] + pts.shape[:-1])
    return None


def _logsumexp(a):
    """log(sum(exp(a))) of a 1-D array with ``scipy.special.logsumexp``'s
    operations and bits: the maxima are split out of the shifted sum, and a
    non-finite result falls back to the direct form."""
    a_max = np.max(a)
    is_max = a == a_max
    m = float(np.count_nonzero(is_max))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = np.sum(np.exp(np.where(is_max, -np.inf, a) - a_max))
        if s != 0:
            s /= m
        out = np.log1p(s) + np.log(m) + a_max
        return out if np.isfinite(out) else np.log(np.sum(np.exp(a)))


def _mixture_log_weights(law: InitialLaw, terms):
    """Per-component logs of w_m * L_m * prod_j d_m(z_j), the relocation mixture's
    unnormalized weights, from the other atoms' ``_atom_terms``."""
    n = terms.shape[2] + 1
    logs, ratios = terms.tolist()  # fsum reads a list of floats fastest
    log_num = np.empty(len(law.components))
    for m, (w, _) in enumerate(law.components):
        log_num[m] = math.log(w) + math.log(math.fsum(ratios[m]) / n) + math.fsum(logs[m])
    return log_num


def _choice_cdf(law, terms, i):
    """The cdf of each row's component choice, shape (C, R), from numpy sums of the
    terms ``terms`` (2, C, R, n) of its atoms but atom i[r]'s, and a bound (R,) on its
    distance from the cdf that ``rng.choice`` builds from the exact weights of
    ``_mixture_log_weights`` on those n - 1 atoms.

    Let u = 2**-53, g = n u / (1 - n u), and for a component m of a row let L and R
    be the exact sums of the others' log-densities and curvature ratios, S and T n
    times the largest magnitude of each kind of term in the row, and x = log w +
    log(R / n) + L.  numpy's sum of the row's n terms, less atom i's, takes at most
    n roundings, so L' and R' are within g S and E = g T of L and R (Higham,
    Accuracy and Stability of Numerical Algorithms, 2002, eq. 4.4 for any order, and
    lemma 3.3), and |log(R' / R)| <= E / (R' - E) when R' > E.  The exact path rounds
    its correctly rounded fsums, both paths round their logs (taken to be within two
    ulps), divisions and additions, which moves either path's x by less than
    16 u (|log w| + |log(R' / n)| + |L'| + 1); so the two paths' log weights differ
    by at most e = g S + E / (R' - E) + that, and a row takes the largest e over m.
    Moving every log weight by at most e moves every exact cdf entry by at most
    expm1(2 e).  Each path's exponentials, normalisation, cumulative sum and
    division by its last entry add at most 8 u (max |x| + C + 2) (the log-sum-exp's
    error is common to every component and cancels in the normalisation).  The
    bound is expm1(2 e) + 32 u (max |x'| + C + 4), infinite unless R' - E > 2**-960,
    which keeps R / n and its roundings in the normal range for any n below 2**60;
    a non-finite value makes the cdf or the bound NaN."""
    n, C = terms.shape[-1], terms.shape[1]
    g = n * _U / (1 - n * _U)
    L, R = terms.sum(axis=-1) - terms[:, :, np.arange(len(i)), i]
    S, T = n * np.maximum(terms.max(axis=-1), -terms.min(axis=-1))
    logw = np.log(law.weights)[:, None]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        y = np.log(R / n)
        x = logw + y + L
        gap = np.maximum(R - g * T - 2.0**-960, 0.0)  # 0 where the bound is void
        e = (g * S + g * T / gap + 16 * _U * (np.abs(logw) + np.abs(y) + np.abs(L) + 1)).max(axis=0)
        cdf = np.cumsum(np.exp(x - x.max(axis=0)), axis=0)
        return cdf / cdf[-1], np.expm1(2 * e) + 32 * _U * (np.abs(x).max(axis=0) + C + 4)


def _choose(law, terms, i, rngs):
    """Each row's component, shape (R,), as ``rng.choice`` draws it from rngs[r] with
    the weights of ``_mixture_log_weights`` on the row's terms ``terms`` (2, C, R, n)
    but atom i[r]'s: one uniform u, then the number of cdf entries at most u.  Where u
    lies farther than ``_choice_cdf``'s bound from each of its entries that count is
    certain; otherwise the row's stream is reset and the exact weights draw it."""
    states = [rng.bit_generator.state for rng in rngs]
    u = np.array([rng.random() for rng in rngs])
    cdf, bound = _choice_cdf(law, terms, i)
    comp = (cdf <= u).sum(axis=0)
    for r in np.flatnonzero(~(np.abs(u - cdf) > bound).all(axis=0)):
        log_num = _mixture_log_weights(law, np.delete(terms[:, :, r], i[r], axis=2))
        alpha = np.exp(log_num - _logsumexp(log_num))
        rngs[r].bit_generator.state = states[r]
        comp[r] = rngs[r].choice(len(alpha), p=alpha / math.fsum(alpha))
    return comp


def _first_round(law, comp, u, P):
    """Row r's first rejection round for component comp[r], from one eigenfunction table:
    u[r] holds P[r] ground-mode proposals of d uniforms, then their acceptance uniforms.
    Returns each row's first accepted proposal (R, d) and whether it has one, with the
    bits of ``AdmissibleDensity.sample``."""
    d = law.basis.domain.dimension
    props = _ground_mode_points(law.basis, np.concatenate([v[:p * d] for v, p in zip(u, P)]).reshape(-1, d))
    au = np.concatenate([v[p * d:] for v, p in zip(u, P)])
    H = law.basis.eigenfunction_matrix(props, max(_last_mode(ad.mu.coeffs) for _, ad in law.components))
    own = np.repeat(comp, P)  # each proposal's component
    dens = np.choose(own, [_series(ad.mu.coeffs, H) for _, ad in law.components])
    ok = au * (np.array([ad.c for _, ad in law.components])[own] * H[0]) < dens
    start = np.cumsum(P) - P
    first = np.minimum.reduceat(np.where(ok, np.arange(len(ok)), len(ok)), start)
    return props[np.minimum(first, len(ok) - 1)], first < start + P


def sample_relocation(kernel: RelocationKernel, positions, i, rngs, terms=None):
    """Relocate atom i[r] of each configuration positions[r] (R, n, d) from rngs[r],
    reading only its other n-1 atoms; shape (R, d).  A row draws what it would alone:
    a mixture row spends its choice's uniform (``_choose``), one rejection round of its
    component (``_first_round``, all rows at once) and continues with
    ``AdmissibleDensity.sample`` only if that round accepts nothing.  ``terms``, if
    given, must equal ``mixture_terms(kernel, positions)`` but in columns i, which
    never change a draw."""
    R, n, d = positions.shape
    if kernel.kind is KernelKind.GROUND_MODE:
        return _ground_mode_points(kernel.basis, np.array([rng.random(d) for rng in rngs]))
    _check_population(kernel, n)
    if kernel.kind is KernelKind.UNIFORM_SURVIVOR:
        j = np.array([rng.integers(n - 1) for rng in rngs])
        return positions[np.arange(R), j + (j >= i)]
    law, i = kernel.law, np.asarray(i)
    if kernel.reads_others:
        if terms is None:  # atom i may sit on a wall: only the others are evaluated
            keep = np.arange(n) != i[:, None]
            terms = np.zeros((2, len(law.components), R, n))
            terms[:, :, keep] = _atom_terms(law, positions[keep])
        comp = _choose(law, terms, i, rngs)
    else:  # rng.choice among one component still spends a uniform
        comp = np.array([0 * rng.random() for rng in rngs], dtype=int)
    P = np.array([_proposal_count(1, law.basis, ad.c) for _, ad in law.components])[comp]
    out, ok = _first_round(law, comp, [rng.random(p * (d + 1)) for rng, p in zip(rngs, P)], P)
    for r in np.flatnonzero(~ok):  # its later rounds continue the row's stream
        out[r] = law.components[comp[r]][1].sample(rngs[r], 1)[0]
    return out


def sample_relocations(kernel: RelocationKernel, rng, h):
    """h draws of a kernel that reads no other atom, shape (h, d), with the draws and bits
    of h one-row ``sample_relocation`` calls on ``rng``.  A one-component mixture draws a
    block of rows (at most 2**17 proposals) in one ``rng.random`` call: per row the choice's
    uniform and a ``_first_round`` row.  The first row f that accepts none continues from
    the end of its first round with ``AdmissibleDensity.sample``; the next block follows."""
    if kernel.kind is KernelKind.GROUND_MODE:
        return sample_ground_mode(kernel.basis, rng, h)
    [(_, ad)] = kernel.law.components  # more would read the other atoms
    d = ad.basis.domain.dimension
    P = _proposal_count(1, ad.basis, ad.c)
    out = np.empty((h, d))
    s = 0
    while s < h:
        rows = min(h - s, max(1, (1 << 17) // P))
        state = rng.bit_generator.state
        u = rng.random((rows, 1 + P * (d + 1)))
        got, ok = _first_round(kernel.law, np.zeros(rows, int), u[:, 1:], np.full(rows, P))
        f = int(np.append(ok, False).argmin())  # the first row accepting none, or rows
        out[s:s + f] = got[:f]
        if f < rows:
            rng.bit_generator.state = state
            rng.random((f + 1, 1 + P * (d + 1)))  # to the end of row f's first round
            out[s + f] = ad.sample(rng, 1)[0]
        s += min(f + 1, rows)  # a continued row included
    return out


def sample_initial_configuration(law: InitialLaw, n: int, rng):
    """Exchangeable initial positions (n, d): one mixture component for the
    whole configuration, atoms i.i.d. from it; raises ValueError if an atom
    is not in the open domain."""
    if n < 1:
        raise ValueError("need at least one particle")
    m = law.pick_component(rng)
    atoms = law.components[m][1].sample(rng, n)
    if not np.all(law.basis.domain.contains_many(atoms)):
        raise ValueError("start atom outside the open domain")
    return atoms


def sample_curvature_weighted(law: InitialLaw, n: int, B: int, rng):
    """B configurations of n atoms from the normalized curvature-weighted law,
    as (starts (B, n, d), masses (B,)), every mass n times the mixture
    curvature mass; raises ValueError if an atom is not in the open domain.
    A row takes a component with probability proportional to weight times
    curvature mass, one special atom from its normalized negative
    half-Laplacian and n-1 atoms i.i.d. from its density.  The draws are
    array calls, made in this order:

    1. ``rng.choice(len(wK), size=B, p=wK / wK.sum())``, the components;
    2. ``rng.integers(n, size=B)``, the special-atom indices;
    3. per component m in index order, over its r rows in row order:
       ``sample_neg_half_laplacian(rng, r)``, then, if n > 1,
       ``sample(rng, r * (n - 1))`` filled row-major around the special atoms.
    """
    if n < 1:
        raise ValueError("need at least one particle")
    wK = np.array([w * ad.curvature_mass for w, ad in law.components])
    comp = rng.choice(len(wK), size=B, p=wK / wK.sum())
    special = np.arange(n) == rng.integers(n, size=B)[:, None]
    starts = np.empty((B, n, law.basis.domain.dimension))
    for m, (_, ad) in enumerate(law.components):
        rows = comp[:, None] == m
        r = np.count_nonzero(rows)
        starts[rows & special] = ad.sample_neg_half_laplacian(rng, r)
        if n > 1:
            starts[rows & ~special] = ad.sample(rng, r * (n - 1))
    if not np.all(law.basis.domain.contains_many(starts)):
        raise ValueError("start atom outside the open domain")
    return starts, np.full(B, n * math.fsum(wK))
