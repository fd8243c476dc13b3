"""The n-particle process: Brownian increments, boundary-hit detection with
Brownian-bridge correction, instantaneous relocation, exact first exits, and
Monte Carlo estimators for the process semigroup and resolvent.

Determinism contract: every stepped replica owns a counter-based RNG stream
spawned from the master seed by replica index, an exit-side batch of up to
``verify._BATCH`` (128) configurations shares one (spawning one a
configuration for relocations that read the other atoms), and every cross-replica
reduction is an ordered compensated sum — so results are bit-identical for
any worker count.  Within a step a replica draws one Gaussian block and one
bridge-uniform block, then its relocations, whose draws depend on its hits;
so paths are reproducible, and the same whether a replica steps alone or
stacked with others.

Exit detection while stepping: a step is declared a boundary hit if the
straight segment leaves the open box, or, for an interior segment, if a
per-face Brownian bridge test fires — the bridge crossing probability for a
face at gaps a (before) and b (after) over a step of size dt is
exp(-2ab/dt); without it the hit rate is undercounted at order sqrt(dt).
Relocation does not read where a hitter hit, so stepping finds only who hit;
``run`` alone resolves where, for its jump log: the segment-boundary
intersection (bridge fires: the point a/(a+b) along it, clamped onto the face).

First exits (``first_exit_batch``, the exit side) take no steps: on a box a
configuration's coordinates are independent killed 1-D motions, so its exit
time, exit wall and positions at that time are drawn exactly from their
closed-form laws.
"""

from __future__ import annotations

import hashlib
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import numpy.random  # numpy loads it lazily: load it here, not inside a verify call

from . import __version__
from .geometry import Domain
from .kernels import (InitialLaw, RelocationKernel, mixture_terms, sample_initial_configuration,
                      sample_relocation)
from .measures import CylinderFunction, EmpiricalMeasure, cylinder_value_many

__all__ = [
    "JumpEvent",
    "TrajectoryResult",
    "run",
    "first_exit_batch",
    "run_replicas",
    "mean_and_stderr",
    "semigroup_estimate",
    "resolvent_estimate",
    "write_trajectory_csv",
    "write_jump_log_csv",
    "write_manifest",
]


@dataclass(frozen=True)
class JumpEvent:
    """One boundary-triggered relocation."""

    time: float
    index: int
    jump_off: tuple
    target: tuple
    distance: float


def _faces(domain, pos, prop, dt, u_bridge):
    """Per face (lo0, hi0, lo1, hi1, ...) of steps of any leading shape (..., n, d), bridge
    uniforms (..., n, d, 2): gaps before and after, whether the step ends outside, the
    bridge crossing probability and whether the bridge fires, each (..., 2d)."""
    lead, d = pos.shape[:-1], pos.shape[-1]

    def gaps(x):  # x - lo and hi - x per face
        g = np.empty(lead + (d, 2))
        np.subtract(x, domain.lo, out=g[..., 0])
        np.subtract(domain.hi, x, out=g[..., 1])
        return g.reshape(lead + (2 * d,))

    gap_p, gap_q = gaps(pos), gaps(prop)
    # the bridge test only counts where both ends are interior, which the
    # exit split guarantees; below -746 the exponential is 0 and is skipped,
    # the exponent failing u < p as 0 would
    p_cross = np.maximum(gap_q, 0.0)
    p_cross *= -2.0 * gap_p
    p_cross /= dt
    np.exp(p_cross, out=p_cross, where=p_cross > -746.0)
    return gap_p, gap_q, gap_q <= 0.0, p_cross, u_bridge.reshape(p_cross.shape) < p_cross


def _detect_hits(domain, pos, prop, dt, u_bridge):
    """The hit mask (...) of steps from ``pos`` to ``prop`` (..., n, d), bridge uniforms
    (..., n, d, 2): a step hits if it ends outside the open box or a face's bridge fires."""
    _, _, out, _, fire = _faces(domain, pos, prop, dt, u_bridge)
    hit = out | fire
    hit_mask = hit[..., 0].copy()
    for j in range(1, hit.shape[-1]):  # ors beat numpy's reduction over a short axis
        hit_mask |= hit[..., j]
    return hit_mask


def _hit_points(domain, p, q, dt, u):
    """Where k hitting steps from p to q (k, d), bridge uniforms u (k, d, 2), met the
    boundary.  A segment that leaves the box hits the first face it meets, by the IEEE
    operations of ``Domain.project_to_boundary``.  An interior segment hits the first most
    probable fired bridge face, at the segment point a/(a+b) moved onto that face."""
    a, b, out, p_cross, fire = _faces(domain, p, q, dt, u)
    exits, at, seg = out.any(axis=-1), np.arange(len(p)), q - p
    # where the segment meets each face ahead: (lo-p)/seg = a/-seg, (hi-p)/seg = a/seg
    ahead = (seg[..., None] * _TOWARDS).reshape(a.shape)
    t = np.divide(a, ahead, out=np.full(a.shape, np.inf), where=ahead > 0.0)
    face = np.where(exits[:, None], -t, np.where(fire, p_cross, -1.0)).argmax(axis=-1)
    a, b, t = a[at, face], b[at, face], t[at, face]
    th = np.where(exits, np.minimum(np.maximum(t, 0.0), 1.0),
                  np.divide(a, a + b, out=np.zeros_like(a), where=a + b > 0.0))
    y = p + th[:, None] * seg
    y[at, face // 2] = np.array([domain.lo, domain.hi]).T.reshape(-1)[face]
    return y


_TOWARDS = np.array([-1.0, 1.0])  # sign of a step towards the lo, hi face


def _step_inplace(domain, positions, dt, kernel, rngs):
    """Advance a stack of independent configurations (B, n, d) one step,
    mutating ``positions``; returns its jumps as arrays (replica, index, pre-step position,
    proposal, bridge uniforms, target), replica by replica in ascending index.  Replica b
    draws its Gaussian block, its bridge-uniform block and then its relocations from ``rngs[b]``.

    Relocation happens at the step's end, rank by rank: one ``sample_relocation``
    call relocates the r-th hit (in ascending index) of every replica that has one
    from its other n-1 particles' current positions (post-step for non-hit,
    already-relocated for earlier hits, pre-step for pending later hits).  The
    kernel's per-atom terms are evaluated in one call for every replica with a hit,
    and a rank's relocated columns are refreshed in one call if a later rank reads them.
    """
    B, n, d = positions.shape
    prop = np.empty((B, n, d))
    u_bridge = np.empty((B, n, d, 2))
    for b, rng in enumerate(rngs):
        rng.standard_normal(out=prop[b])
        rng.random(out=u_bridge[b])
    # normal(0, s) draws 0.0 + s*z; the 0.0 can only flip the sign of a zero
    # increment, which leaves the sum below unchanged
    prop *= math.sqrt(dt)
    prop += positions
    hit_mask = _detect_hits(domain, positions, prop, dt, u_bridge)
    # hit rows keep their pre-step positions until relocated
    np.copyto(positions, prop, where=~hit_mask[..., None])

    hb, hi = np.nonzero(hit_mask)  # replica by replica, each replica's hits in ascending index
    moves = positions[hb, hi], prop[hb, hi], u_bridge[hb, hi]  # what _hit_points reads
    rows = np.flatnonzero(hit_mask.any(axis=1))
    terms = mixture_terms(kernel, positions[rows]) if len(rows) else None
    t, rank = np.searchsorted(rows, hb), np.arange(len(hb)) - np.searchsorted(hb, hb)
    for r in range(rank.max(initial=-1) + 1):
        at = np.flatnonzero(rank == r)
        b, i = hb[at], hi[at]
        positions[b, i] = sample_relocation(kernel, positions[b], i, [rngs[k] for k in b],
                                            None if terms is None else terms.take(t[at], axis=2))
        at = at[rank[np.minimum(at + 1, len(hb) - 1)] == r + 1]  # the columns a later rank reads
        if terms is not None and len(at):
            terms[:, :, t[at], hi[at]] = mixture_terms(kernel, positions[hb[at], hi[at]])
    return hb, hi, *moves, positions[hb, hi]  # each hit is relocated once


def _step_count(T, dt):
    """The number of steps of size dt to horizon T; raises ValueError unless dt
    is positive and T a positive whole multiple of dt (within relative 1e-9)."""
    if not dt > 0:
        raise ValueError("dt must be positive")
    steps = T / dt
    if not (T > 0 and math.isfinite(steps) and round(steps) >= 1
            and math.isclose(steps, round(steps), rel_tol=1e-9)):
        raise ValueError("horizon must be a positive whole multiple of dt")
    return int(round(steps))


def advance_steps(domain, positions, n_steps, dt, kernel, rngs, on_step=None):
    """In-place multi-step advance of a (B, n, d) stack with one stream per
    replica, its clock starting at 0.  ``on_step(k, time, jumps)``, if given,
    observes the state after step k (0-based); ``jumps`` are the step's (replica, index,
    pre-step position, proposal, bridge uniforms, target) arrays of ``_step_inplace``."""
    time = 0.0
    for k in range(n_steps):
        jumps = _step_inplace(domain, positions, dt, kernel, rngs)
        time += dt
        if on_step is not None:
            on_step(k, time, jumps)


@dataclass
class TrajectoryResult:
    times: np.ndarray
    observable_names: list
    values: np.ndarray  # (n_records, n_observables)
    jump_counts: np.ndarray  # cumulative, per record
    events: list
    final: np.ndarray  # the positions (n, d) at T


def run(start, rng, T, dt, kernel: RelocationKernel, observables, basis,
        record_stride=1) -> TrajectoryResult:
    """Run the interior positions ``start`` (n, d) in ``basis.domain`` from time 0
    to horizon T, drawing from ``rng``, and record cylinder observables of the
    empirical measure every ``record_stride`` steps (and at time 0).  It steps
    a copy of ``start``, which stays as it was."""
    n_steps = _step_count(T, dt)
    if type(record_stride) is not int or record_stride < 1:  # the CLI's rule: no bool, no float
        raise ValueError(f"record_stride must be a positive integer, got {record_stride!r}")
    pos = EmpiricalMeasure(basis.domain, start).positions.copy()
    events = []

    def observe():
        return [cylinder_value_many(f, pos[None], basis)[0] for f in observables]

    times, rows, counts = [0.0], [observe()], [0]

    def record(k, time, jumps):
        _b, hi, p, q, u, targets = jumps  # one replica
        hit_points = _hit_points(basis.domain, p, q, dt, u) if len(hi) else ()
        events.extend(JumpEvent(time, int(i), tuple(float(v) for v in y),
                                tuple(float(v) for v in target),
                                float(np.linalg.norm(target - y)))
                      for i, y, target in zip(hi, hit_points, targets))
        if (k + 1) % record_stride == 0 or k == n_steps - 1:
            times.append(time)
            rows.append(observe())
            counts.append(len(events))

    advance_steps(basis.domain, pos[None], n_steps, dt, kernel, [rng], on_step=record)
    return TrajectoryResult(
        times=np.array(times),
        observable_names=[f.name for f in observables],
        values=np.array(rows),
        jump_counts=np.array(counts),
        events=events,
        final=pos,
    )


_BLOCK = 4096  # atom coordinates a resolvent observes per cylinder_value_many call


# -- exact first exit on a box --------------------------------------------------------
#
# Between hits the atoms are independent Brownian motions, so on a box each coordinate is
# a 1-D motion killed at the ends of its side (0, L), independently of the others.  At gap
# x from the lower wall, with lambda_k = (k pi / L)^2 / 2 and erfc sums by images:
#   S(t) = sum_{k odd} 4/(k pi) sin(k pi x / L) exp(-lambda_k t)           (survival)
#   1 - S(t) = sum_{k>=0} (-1)^k [erfc((kL + x)/sqrt(2t)) + erfc((kL + L - x)/sqrt(2t))]
# The killed kernel, the flux at each wall and the bridge's non-exit probability have the
# same two forms.  Image sums serve t < L^2/16 and eigen sums t from L^2/16 on; there each
# term left out of a sum is below e^-45 of its first.

# W. J. Cody's rational Chebyshev approximations to erf and erfc (Math. Comp. 23, 1969),
# with the coefficients of his CALERF, highest power first: numerator and denominator in
# x^2 for |x| <= 0.46875, in |x| up to 4, and in 1/x^2 above.
_CODY = tuple(np.array(c) for c in (
    ((1.85777706184603153e-1, 3.16112374387056560e00, 1.13864154151050156e02,
      3.77485237685302021e02, 3.20937758913846947e03),
     (1.0, 2.36012909523441209e01, 2.44024637934444173e02, 1.28261652607737228e03,
      2.84423683343917062e03)),
    ((2.15311535474403846e-8, 5.64188496988670089e-1, 8.88314979438837594e00,
      6.61191906371416295e01, 2.98635138197400131e02, 8.81952221241769090e02,
      1.71204761263407058e03, 2.05107837782607147e03, 1.23033935479799725e03),
     (1.0, 1.57449261107098347e01, 1.17693950891312499e02, 5.37181101862009858e02,
      1.62138957456669019e03, 3.29079923573345963e03, 4.36261909014324716e03,
      3.43936767414372164e03, 1.23033935480374942e03)),
    ((1.63153871373020978e-2, 3.05326634961232344e-1, 3.60344899949804439e-1,
      1.25781726111229246e-1, 1.60837851487422766e-2, 6.58749161529837803e-4),
     (1.0, 2.56852019228982242e00, 1.87295284992346725e00, 5.27905102951428412e-1,
      6.05183413124413191e-2, 2.33520497626869185e-3)),
))


def _erfc(x):
    """erfc of each element of x, by Cody's approximations in his operation order:
    exp(-x^2) is exp(-s^2) exp(-(|x| - s)(|x| + s)) with s = |x| rounded down to a sixteenth,
    and erfc is 0 from |x| = 26.543 on."""
    shape = np.shape(x)
    x = np.ravel(x).astype(float)
    y = np.abs(x)
    band = (y > 0.46875).astype(np.intp) + (y > 4.0)
    out = np.empty(x.shape)
    for b, coeffs in enumerate(_CODY):
        at = np.flatnonzero(band == b)
        if not len(at):
            continue
        yb = y[at]
        w = yb * yb if b == 0 else yb if b == 1 else 1.0 / (yb * yb)
        acc = coeffs[:, :1] * w  # numerator and denominator, by Horner
        for k in range(1, coeffs.shape[1] - 1):
            acc += coeffs[:, k:k + 1]
            acc *= w
        acc += coeffs[:, -1:]
        num, den = acc
        if b == 0:
            out[at] = 1.0 - x[at] * num / den
            continue
        r = num / den if b == 1 else (5.6418958354775628695e-1 - w * num / den) / yb
        yc = np.minimum(yb, 26.543)  # from there on erfc is 0
        s = np.trunc(yc * 16.0) / 16.0
        r = np.exp(-s * s) * np.exp(-(yc - s) * (yc + s)) * r
        r[yb >= 26.543] = 0.0
        out[at] = np.where(x[at] < 0.0, 2.0 - r, r)
    return out.reshape(shape)


def _exp(a):
    """exp(a), taken as 0 where a < -708: numpy's exp is slow where its result is subnormal."""
    return np.exp(a, out=np.zeros(np.shape(a)), where=a >= -708.0)


_ODD = np.arange(1, 15, 2)[:, None]  # the eigen sums' odd modes, k <= 13
_MODES = np.arange(1, 13)[:, None]  # the killed kernel's and the flux's modes, k <= 12


def _exit_residual(t, x, y, L, u):
    """g(t) and dg/dt for coordinates at gaps x, y from the lower, upper wall of (0, L), where g is
    log P(T <= t) - log(1 - u) by images for t < L^2/16 and log u - log S(t) from it on: g
    increases in t and vanishes at the exit time T with S(T) = u.  Elementwise."""
    g, dg = np.empty(t.shape), np.empty(t.shape)
    img = t < L * L / 16.0
    ti, Li = t[img], L[img]
    near = np.minimum(x[img], y[img])  # the sums are symmetric in x and y
    # near + kL and (k + 1)L - near over sqrt(2t), k = 0, 1, 2, with the image signs
    # (3L - near is left out)
    z = np.stack([near, Li - near, Li + near, 2.0 * Li - near, 2.0 * Li + near]) \
        / np.sqrt(2.0 * ti)
    sign = np.array([1.0, 1.0, -1.0, -1.0, 1.0])[:, None]
    p = (sign * _erfc(z)).sum(axis=0)
    with np.errstate(divide="ignore"):
        g[img] = np.log(p) - np.log1p(-u[img])
    dg[img] = (sign * z * _exp(-z * z)).sum(axis=0) / (math.sqrt(math.pi) * ti * p)
    te, xe, Le = t[~img], x[~img], L[~img]
    a = _ODD * (math.pi / Le)
    terms = np.sin(a * xe) * _exp(-0.5 * a * a * te) / _ODD
    s = terms.sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):  # s is 0 only far beyond any T
        g[~img] = np.log(u[~img]) - np.log(s * (4.0 / math.pi))
        dg[~img] = 0.5 * (a * a * terms).sum(axis=0) / s
    return g, dg


_NEWTON_STEPS = 4


def _exit_times(x, y, L, u, lo, hi):
    """The exit times T with S(T) = u of coordinates at gaps x, y in (0, L), given bounds
    lo <= T <= hi, by a fixed schedule of safeguarded Newton steps, elementwise, so that
    a coordinate's T has the same bits in any batch.  A coordinate with g(L^2/16) >= 0 is
    on the image side: it steps in z = d/sqrt(2t), d its nearest wall gap, from the z with
    erfc(z) = 1 - u by Winitzki's approximation.  The others step in t from L^2/16 on.  A
    step that leaves the bracket is replaced by its midpoint."""
    star = L * L / 16.0
    g, dg = _exit_residual(star, x, y, L, u)
    img = g >= 0.0
    lo, hi = np.where(img, lo, star), np.where(img, np.minimum(star, hi), hi)
    ell = np.log1p(-u) + np.log1p(u)  # log(1 - erf^2) at erf = u
    c = 2.0 / (math.pi * 0.147) + 0.5 * ell
    z2 = np.sqrt(c * c - ell / 0.147) - c
    near = np.minimum(x, y)
    with np.errstate(divide="ignore"):
        t = np.where(img, near * near / (2.0 * z2), star - g / dg)
    for _ in range(_NEWTON_STEPS):
        t = np.where((t >= lo) & (t <= hi), t, 0.5 * (lo + hi))
        g, dg = _exit_residual(t, x, y, L, u)
        lo, hi = np.where(g < 0.0, t, lo), np.where(g > 0.0, t, hi)
        # on the image side, z + g/(dg/dz) with dg/dz = -2 t dg/z
        t = np.where(img, t / (1.0 + 0.5 * g / (t * dg)) ** 2, t - g / dg)
    return np.where((t >= lo) & (t <= hi), t, 0.5 * (lo + hi))


def _lower_wall_share(t, x, y, L):
    """For coordinates at gaps x, y in (0, L) that exit at time t, the share of the lower
    wall's flux in the total: by images about the nearest wall (three terms a wall,
    relative to the nearest wall's first) or by the eigen sums."""
    out = np.empty(t.shape)
    img = t < L * L / 16.0
    ti, xi, yi, Li = t[img], x[img], y[img], L[img]
    near = np.minimum(xi, yi)
    far = Li - near
    f_near = near - (2.0 * Li - near) * _exp(-2.0 * Li * far / ti) \
        + (2.0 * Li + near) * _exp(-2.0 * Li * (Li + near) / ti)
    f_far = far * _exp(-0.5 * (far - near) * Li / ti) \
        - (Li + near) * _exp(-0.5 * Li * (Li + 2.0 * near) / ti) \
        + (3.0 * Li - near) * _exp(-1.5 * Li * (3.0 * Li - 2.0 * near) / ti)
    out[img] = np.where(xi <= yi, f_near, f_far) / (f_near + f_far)
    # fluxes k sin(k pi x / L) e^{-(lambda_k - lambda_1) t}, the odd k at both walls
    te, xe, Le = t[~img], x[~img], L[~img]
    a = _MODES * (math.pi / Le)
    terms = _MODES * np.sin(a * xe) * _exp(-0.5 * (a * a - (math.pi / Le) ** 2) * te)
    out[~img] = 0.5 * terms.sum(axis=0) / terms[::2].sum(axis=0)
    return out


def _bridge_stays(ax, bx, ay, by, L, t):
    """The probability that a Brownian bridge over time t between points at gaps (ax, bx)
    and (ay, by) from the lower and upper end of (0, L) stays inside, t < L^2/16: the
    image sum over k of e^{-2kL(kL + y - x)/t} - e^{-2(kL + x)(kL + y)/t}."""
    lower = ax <= bx  # 1 minus the nearest wall's term, to full relative precision
    gx, gy = np.where(lower, ax, bx), np.where(lower, ay, by)
    hx, hy = np.where(lower, bx, ax), np.where(lower, by, ay)
    e = _exp(-2.0 / t * np.stack([hx * hy, L * (ay + bx), L * (by + ax),
                                    (L + ax) * (L + ay), (L + bx) * (L + by)]))
    return -np.expm1(-2.0 * gx * gy / t) - e[0] + e[1] + e[2] - e[3] - e[4]


def _killed_proposals(x, lo, hi, t, z, v):
    """One proposal per element and whether it is accepted, for ``_killed_draws``."""
    L = hi - lo
    ax, bx = x - lo, hi - x
    y = x + np.sqrt(t) * z
    eig = t >= L * L / 16.0
    ray = np.flatnonzero(~eig & (np.minimum(ax, bx) ** 2 < t))
    eig = np.flatnonzero(eig)
    w = 2.0 * np.sqrt(-t[ray] * np.log1p(-v[ray, 0]))  # Rayleigh of scale sqrt(2t)
    y[ray] = np.where(ax[ray] <= bx[ray], lo[ray] + w, hi[ray] - w)
    y[eig] = lo[eig] + L[eig] / math.pi * np.arccos(1.0 - 2.0 * v[eig, 0])  # the ground mode
    ay, by = y - lo, hi - y
    ok = (ay > 0.0) & (by > 0.0)
    # from the free Gaussian: the bridge's non-exit probability, which is 1 in floating
    # point unless a wall's exponent is above -40
    test = ok & (2.0 * np.minimum(ax * ay, bx * by) <= 40.0 * t)
    test[ray] = test[eig] = False
    at = np.flatnonzero(test)
    ok[at] = v[at, 1] < _bridge_stays(ax[at], bx[at], ay[at], by[at], L[at], t[at])
    # Rayleigh: p e^{r w - w^2/4}/(2 r w), r and w the near gaps over sqrt(t)
    at = ray[ok[ray]]
    gx, gy = np.minimum(ax[at], bx[at]), np.where(ax[at] <= bx[at], ay[at], by[at])
    ok[at] = v[at, 1] * 2.0 * gx * gy < t[at] * _exp((gx * gy - 0.25 * gy * gy) / t[at]) \
        * _bridge_stays(ax[at], bx[at], ay[at], by[at], L[at], t[at])
    # the ground mode: sum_k sin(k thx) sin(k thy) E_k <= M sin(thx) sin(thy), M = sum_k k^2 E_k
    at = eig[ok[eig]]
    La, thx, thy = L[at], math.pi * ax[at] / L[at], math.pi * ay[at] / L[at]
    E = _exp(-0.5 * (_MODES ** 2 - 1) * (math.pi / La) ** 2 * t[at])
    ok[at] = v[at, 1] * (_MODES ** 2 * E).sum(axis=0) * np.sin(thx) * np.sin(thy) \
        < (np.sin(_MODES * thx) * np.sin(_MODES * thy) * E).sum(axis=0)
    return y, ok


def _killed_draws(x, lo, hi, t, rng):
    """For coordinates at x in (lo, hi) (arrays of one length), their positions at time t
    given that they have not left by then: draws from the killed kernel q(t, x, .)/S(t|x),
    by rejection.  Each round, the k coordinates still open draw m proposals each (m = 1
    in the first round, 16 after) from ``rng.standard_normal((k, m))`` and then
    ``rng.random((k, m, 2))`` in order, and keep their first accepted one.  A proposal is

    - for t >= L^2/16, a point of the ground mode of (lo, hi), accepted with the eigen
      sums' ratio of q to it over their bound;
    - within sqrt(t) of a wall, that wall's gap from a Rayleigh law of scale sqrt(2t);
    - otherwise x + sqrt(t) z, accepted with the bridge's non-exit probability.

    Each accepts at least about a quarter of its proposals."""
    y, ok = _killed_proposals(x, lo, hi, t, rng.standard_normal(len(x)),
                              rng.random((len(x), 2)))
    todo, m = np.flatnonzero(~ok), 16
    while len(todo):
        k = len(todo)
        z, v = rng.standard_normal((k, m)), rng.random((k, m, 2))
        got, take = _killed_proposals(*(np.repeat(a[todo], m) for a in (x, lo, hi, t)),
                                      z.reshape(-1), v.reshape(-1, 2))
        got, take = got.reshape(k, m), take.reshape(k, m)
        done = take.any(axis=1)
        y[todo[done]] = got[done, take[done].argmax(axis=1)]
        todo = todo[~done]
    return y


def first_exit_batch(domain: Domain, starts, dt, rng):
    """Exact first exit for a stack of independent configurations (B, n, d) in the open
    box ``domain``: each diffuses without relocation until one of its atoms reaches the
    boundary.  Returns (finals (B, n, d), hit_index (B,), taus (B,)): taus[b] is the exit
    time, finals[b, hit_index[b]] the hit point on the boundary, and the other atoms are
    interior, where they are at taus[b].  The draw is exact in distribution; dt does not
    change it.  Raises ValueError unless every start is inside the open box.

    A configuration's coordinates are independent 1-D motions, so tau is the smallest of
    its n*d exit times.  The draws, in order:

    1. ``rng.random((B, n, d))``: each coordinate's survival uniform u (0 taken as
       2^-54); its exit time T solves S(T) = u.  With a its nearest wall gap,
       a^2/(2 log(2/(1 - u))) <= T <= 2a^2/(pi u^2), from erfc z <= exp(-z^2) and
       erf z <= 2z/sqrt(pi).  T1, the smallest upper bound, bounds tau, so T is solved
       (``_exit_times``) only where the lower bound is at most T1 and u is at least
       S(T1), and for the coordinate of T1.  A T1 below 1e-280 L^2 (L the longest side;
       a start within about 1e-140 L of a wall) is taken as tau = 0: that coordinate
       exits at its nearest wall and the others stay at their starts.
    2. ``rng.random(B)``: the smallest T's wall, the lower one where the uniform is below
       the lower wall's share of the flux at tau.
    3. The other coordinates' positions at tau, in (b, i, j) order (``_killed_draws``).
    """
    pos = np.array(starts, dtype=float)
    if pos.ndim != 3 or pos.shape[-1] != domain.dimension:
        raise ValueError(f"starts must have shape (B, n, {domain.dimension})")
    if not np.all(domain.contains_many(pos)):
        raise ValueError("start atom outside the open domain")
    B, n, d = pos.shape
    pos = pos.reshape(B, n * d)
    lo, hi = np.tile(domain.lo, (B, n)), np.tile(domain.hi, (B, n))
    x, y, L = pos - lo, hi - pos, hi - lo  # gaps from each wall, each to full precision
    u = np.maximum(rng.random((B, n, d)).reshape(B, n * d), 2.0**-54)
    near = np.minimum(x, y)
    bound = near * near / (2.0 * np.log(2.0 / (1.0 - u)))
    cap = 2.0 * near * near / (math.pi * u * u)
    rows, first = np.arange(B), cap.argmin(axis=1)
    T1 = cap[rows, first]
    now = T1 < 1e-280 * L.max(initial=0.0) ** 2  # solving for T there would overflow
    b, j = np.nonzero((bound <= T1[:, None]) & ~now[:, None])
    keep = (_exit_residual(T1[b], x[b, j], y[b, j], L[b, j], u[b, j])[0] >= 0.0) | (j == first[b])
    at = b[keep], j[keep]
    T = np.full(pos.shape, np.inf)
    T[at] = _exit_times(x[at], y[at], L[at], u[at], bound[at], cap[at])
    T[rows[now], first[now]] = 0.0
    win = T.argmin(axis=1)
    taus, xw, yw, Lw = T[rows, win], x[rows, win], y[rows, win], L[rows, win]
    share = (xw <= yw).astype(float)  # at tau = 0, the nearest wall's
    share[~now] = _lower_wall_share(taus[~now], xw[~now], yw[~now], Lw[~now])
    lower = rng.random(B) < share
    finals = pos.copy()
    # the others, in rows whose tau is not 0 (there they stay at their starts)
    other = np.flatnonzero((np.arange(n * d) != win[:, None]) & ~now[:, None])
    finals.flat[other] = _killed_draws(pos.flat[other], lo.flat[other], hi.flat[other],
                                       taus[other // (n * d)], rng)
    finals[rows, win] = np.where(lower, lo[rows, win], hi[rows, win])
    return finals.reshape(B, n, d), win // d, taus


def _as_seedseq(seed):
    """``seed`` as a SeedSequence; one passed in is returned as it is."""
    return seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)


def run_replicas(M, seed, worker, jobs=1):
    """Evaluate ``worker(rng, replica_index)`` for M replicas on independent
    Philox streams seeded by M children of ``seed`` (or by ``seed``, a list of
    M SeedSequences); results come back in replica order for any ``jobs``."""
    children = seed if isinstance(seed, list) else _as_seedseq(seed).spawn(M)
    jobs = max(1, jobs or 1)

    def share(c):  # one task a thread: replicas c, c + jobs, c + 2 jobs, ...
        return [worker(np.random.Generator(np.random.Philox(children[m])), m)
                for m in range(c, M, jobs)]

    if jobs == 1:
        return share(0)
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        shares = list(pool.map(share, range(jobs)))
    return [shares[m % jobs][m // jobs] for m in range(M)]


def mean_and_stderr(values):
    """Ordered compensated mean and its standard error."""
    values = [float(v) for v in values]
    m = len(values)
    mean = math.fsum(values) / m
    if m < 2:
        return mean, float("inf")
    var = math.fsum((v - mean) ** 2 for v in values) / (m - 1)
    return mean, math.sqrt(var / m)


def _replica_starts(law: InitialLaw, n, sets, jobs):
    """Per replica of each (M, seed) of ``sets``, its stream and an n-particle start drawn with it
    by one ``run_replicas`` call on ``jobs`` threads: (starts (B, n, d), streams), B = 0 if none."""
    def worker(rng, _m):
        return rng, sample_initial_configuration(law, n, rng)

    children = [child for M, seed in sets for child in _as_seedseq(seed).spawn(M)]
    rngs, starts = list(zip(*run_replicas(len(children), children, worker, jobs))) or [(), ()]
    return np.array(starts, float).reshape(len(rngs), n, law.basis.domain.dimension), rngs


def _stacked_estimates(law: InitialLaw, n, dt, kernel: RelocationKernel, jobs, estimators):
    """What ``semigroup_estimate`` or ``resolvent_estimate`` returns for each ("semigroup", g,
    psi, t, M, seed) or ("resolvent", g, psi, beta, M, seed) of ``estimators`` (a resolvent
    ignores psi), all replicas stepping as one stack in order of step count.  One that reaches
    its count is read, and the rest of the stack steps on in place, so each replica steps as it
    would alone.  A resolvent copies its rows at the start and after each step, and observes the
    copies in one call once they hold ``_BLOCK`` atom coordinates, and when read.  An estimator
    whose observables read no mode takes no path: it observes phi on no pairings."""
    if n < 1:  # a pathless estimator draws no start that would check it
        raise ValueError("need at least one particle")
    for kind, _g, _psi, x, M, _seed in estimators:
        if kind == "resolvent" and x <= 0:
            raise ValueError("beta must be positive")
        if M < 2:
            raise ValueError("need at least two replicas for a standard error")
    basis = law.basis
    # a resolvent's count is 12/beta rounded up to whole steps, once _step_count has checked dt
    steps = [_step_count(dt, dt) * math.ceil(12.0 / x / dt) if kind == "resolvent"
             else _step_count(x, dt) for kind, _g, _psi, x, _M, _seed in estimators]
    pathless = [e for e, (kind, g, psi, *_) in enumerate(estimators)
                if g.n_modes == 0 and (kind == "resolvent" or psi.n_modes == 0)]
    order = sorted(set(range(len(estimators))) - set(pathless), key=steps.__getitem__)
    pos, rngs = _replica_starts(law, n, [estimators[e][4:] for e in order], jobs)
    at = np.cumsum([0] + [estimators[e][4] for e in order])  # each estimator's first row
    rows = {e: pos[at[i]:at[i + 1]] for i, e in enumerate(order)}  # views, stepped in place

    def values(f, e):  # f on each of e's rows, or on M rows of no pairings
        return cylinder_value_many(f, rows[e], basis) if e in rows else \
            np.array(f.phi(np.zeros((estimators[e][4], 0))), float)

    # a semigroup's psi at the start; a resolvent's g, on copies of its rows or, pathless, at once
    seen = {e: [values(psi, e)] if kind == "semigroup" else [] if e in rows
            else [values(g, e)] * (steps[e] + 1) for e, (kind, g, psi, *_) in enumerate(estimators)}
    kept = {e: [rows[e].copy()] for e in order if estimators[e][0] == "resolvent"}

    def observe(e, block):  # once a resolvent's copies hold ``block`` atom coordinates
        if len(kept[e]) * rows[e].size >= block:
            seen[e].append(cylinder_value_many(estimators[e][1], np.concatenate(kept[e]), basis))
            kept[e].clear()

    def keep(_k, _time, _jumps):  # every resolvent not yet read
        for e in kept:
            kept[e].append(rows[e].copy())
            observe(e, _BLOCK)

    out = {}
    for i, e in enumerate(order + pathless):
        kind, g, _psi, beta, M, _seed = estimators[e]
        if e in rows:
            advance_steps(basis.domain, pos[at[i]:], steps[e] - (steps[order[i - 1]] if i else 0),
                          dt, kernel, rngs[at[i]:], on_step=keep)
        if kind == "semigroup":
            out[e] = mean_and_stderr(values(g, e) * seen[e][0])
            continue
        if e in kept:
            observe(e, 1)
            del kept[e]
        # integral of e^{-beta t} over each step, plus the tail frozen at T_cut = 12/beta
        edges = np.exp(-beta * dt * np.arange(steps[e] + 1))
        weights = np.append((edges[:-1] - edges[1:]) / beta, edges[-1] / beta)
        vals = np.concatenate(seen[e]).reshape(-1, M)
        est, err = mean_and_stderr([math.fsum(v * weights) for v in vals.T])
        out[e] = est, err, float(np.abs(vals).max()) * math.exp(-beta * (12.0 / beta)) / beta
    return [out[e] for e in range(len(estimators))]


def semigroup_estimate(law: InitialLaw, g: CylinderFunction, psi: CylinderFunction,
                       t, n, M, dt, kernel: RelocationKernel, seed):
    """Monte Carlo for the pairing of the time-t semigroup applied to g with
    psi under the n-particle initial law: mean over replicas of
    g(state at t) * psi(state at 0).  The replicas advance as one stack."""
    return _stacked_estimates(law, n, dt, kernel, 1, [("semigroup", g, psi, t, M, seed)])[0]


def resolvent_estimate(law: InitialLaw, g: CylinderFunction, beta, n, M, dt,
                       kernel: RelocationKernel, seed):
    """Monte Carlo for the beta-resolvent of g under the n-particle process,
    by exact exponential-weight quadrature of the observed trajectory up to
    T_cut = 12/beta, the replicas advancing as one stack.  Returns
    (estimate, stderr, tail_bound), the tail bound using the largest |g|
    value seen."""
    return _stacked_estimates(law, n, dt, kernel, 1, [("resolvent", g, None, beta, M, seed)])[0]


# -- artifacts ----------------------------------------------------------------


def _write_meta_line(fh, meta):
    fh.write("# " + " ".join(f"{k}={v}" for k, v in meta.items()) + "\n")


def write_trajectory_csv(path, result: TrajectoryResult, meta):
    """Columns: time, one per observable, jump_count.  ``meta`` key/values
    (config hash, seed) go into a leading comment line."""
    import csv as _csv

    with open(path, "w", newline="") as fh:
        _write_meta_line(fh, meta)
        w = _csv.writer(fh)
        w.writerow(["time", *result.observable_names, "jump_count"])
        for t, row, c in zip(result.times, result.values, result.jump_counts):
            w.writerow(
                [format(t, ".17g"), *(format(v, ".17g") for v in row), int(c)]
            )


def write_jump_log_csv(path, events, dimension, meta):
    """Columns: time, particle, jump-off point, relocation target, distance,
    after the ``meta`` comment line."""
    import csv as _csv

    offcols = [f"jump_off{k + 1}" for k in range(dimension)]
    tocols = [f"target{k + 1}" for k in range(dimension)]
    with open(path, "w", newline="") as fh:
        _write_meta_line(fh, meta)
        w = _csv.writer(fh)
        w.writerow(["time", "particle", *offcols, *tocols, "distance"])
        for ev in events:
            w.writerow(
                [
                    format(ev.time, ".17g"),
                    ev.index,
                    *(format(v, ".17g") for v in ev.jump_off),
                    *(format(v, ".17g") for v in ev.target),
                    format(ev.distance, ".17g"),
                ]
            )


def config_hash(config: dict) -> str:
    """Stable hash of a JSON-serializable config."""
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def write_manifest(path, seed, config: dict):
    """JSON manifest: seed, config hash, package version.  No timestamps,
    timings or checkout state — outputs must be byte-identical across
    reruns wherever they run."""
    manifest = {
        "seed": int(seed),
        "config_sha256": config_hash(config),
        "build": __version__,
    }
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
