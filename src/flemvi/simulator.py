"""The n-particle process: Brownian increments, boundary-hit detection with
Brownian-bridge correction, instantaneous relocation, and Monte Carlo
estimators for the process semigroup and resolvent.

Determinism contract: every stepped replica owns a counter-based RNG stream
spawned from the master seed by replica index, an exit-side batch of up to
``verify._BATCH`` (128) configurations shares one, and every cross-replica
reduction is an ordered compensated sum — so results are bit-identical for
any worker count.  Within a step a replica draws one Gaussian block and one
bridge-uniform block, then its relocations, whose draws depend on its hits;
so paths are reproducible, and the same whether a replica steps alone or
stacked with others.

Exit detection: a step is declared a boundary hit if the straight segment
leaves the open box, or, for an interior segment, if a per-face Brownian
bridge test fires — the bridge crossing probability for a face at gaps a
(before) and b (after) over a step of size dt is exp(-2ab/dt).  The hit
point is the segment-boundary intersection (bridge fires: the segment point
at fraction a/(a+b), clamped onto the face).  Without the bridge term the
hit rate is undercounted at order sqrt(dt).
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


def _detect_hits(domain, pos, prop, dt, u_bridge):
    """Classify each particle's step, for positions of any leading shape
    (..., n, d) with bridge uniforms of shape (..., n, d, 2).

    Returns (hit_mask, theta, hit_points): theta is the within-step hit
    fraction, hit_points the boundary location; both are NaN where
    hit_mask is unset.  Faces are ordered lo0, hi0, lo1, hi1.  A segment
    that leaves the box hits the first face it meets, by the IEEE
    operations of ``Domain.project_to_boundary``, with theta re-read on its
    first moving axis.  An interior segment hits the first most probable
    fired bridge face, at the segment point a/(a+b) moved onto that face.
    """
    lead, d = pos.shape[:-1], pos.shape[-1]

    def gaps(x):  # x - lo and hi - x per face, shape (..., 2d)
        g = np.empty(lead + (d, 2))
        np.subtract(x, domain.lo, out=g[..., 0])
        np.subtract(domain.hi, x, out=g[..., 1])
        return g.reshape(lead + (2 * d,))

    gap_p, gap_q = gaps(pos), gaps(prop)
    out = gap_q <= 0.0
    # the bridge test only counts where both ends are interior, which the
    # exit split guarantees; below -746 the exponential is 0 and is skipped,
    # the exponent failing u < p as 0 would
    p_cross = np.maximum(gap_q, 0.0)
    p_cross *= -2.0 * gap_p
    p_cross /= dt
    np.exp(p_cross, out=p_cross, where=p_cross > -746.0)
    fire = u_bridge.reshape(p_cross.shape) < p_cross
    hit = out | fire
    hit_mask = hit[..., 0].copy()
    for j in range(1, 2 * d):  # ors beat numpy's reduction over a short axis
        hit_mask |= hit[..., j]

    theta = np.full(lead, np.nan)
    hit_points = np.full(pos.shape, np.nan)
    rows = np.flatnonzero(hit_mask)
    if len(rows) == 0:
        return hit_mask, theta, hit_points
    at = np.arange(len(rows))
    p = pos.reshape(-1, d)[rows]
    seg = prop.reshape(-1, d)[rows] - p
    exits = out.reshape(-1, 2 * d)[rows].any(axis=-1)
    a, b = gap_p.reshape(-1, 2 * d)[rows], gap_q.reshape(-1, 2 * d)[rows]
    # where the segment meets each face ahead: (lo-p)/seg = a/-seg, (hi-p)/seg = a/seg
    ahead = (seg[..., None] * _TOWARDS).reshape(a.shape)
    t = np.divide(a, ahead, out=np.full(a.shape, np.inf), where=ahead > 0.0)
    key = np.where(exits[:, None], -t, np.where(fire.reshape(-1, 2 * d)[rows],
                                                p_cross.reshape(-1, 2 * d)[rows], -1.0))
    face = key.argmax(axis=-1)
    a, b, t = a[at, face], b[at, face], t[at, face]
    th = np.where(exits, np.minimum(np.maximum(t, 0.0), 1.0),
                  np.divide(a, a + b, out=np.zeros_like(a), where=a + b > 0.0))
    y = p + th[:, None] * seg
    y[at, face // 2] = np.array([domain.lo, domain.hi]).T.reshape(-1)[face]
    # an exit's theta is re-read on its first moving axis
    ax = (seg != 0.0).argmax(axis=-1)
    move = seg[at, ax]
    moved = np.divide(y[at, ax] - p[at, ax], move, out=np.zeros_like(move), where=move != 0.0)
    theta.reshape(-1)[rows] = np.minimum(np.maximum(np.where(exits, moved, th), 0.0), 1.0)
    hit_points.reshape(-1, d)[rows] = y
    return hit_mask, theta, hit_points


_TOWARDS = np.array([-1.0, 1.0])  # sign of a step towards the lo, hi face


def _step_inplace(domain, positions, dt, kernel, rngs):
    """Advance a stack of independent configurations (B, n, d) one step,
    mutating ``positions``; returns its jumps as arrays (replica, index, hit
    point, target), replica by replica in ascending index.  Replica b draws its
    Gaussian block, its bridge-uniform block and then its relocations from ``rngs[b]``.

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
    hit_mask, _theta, hit_points = _detect_hits(domain, positions, prop, dt, u_bridge)
    # hit rows keep their pre-step positions until relocated
    np.copyto(positions, prop, where=~hit_mask[..., None])

    hb, hi = np.nonzero(hit_mask)  # replica by replica, each replica's hits in ascending index
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
    return hb, hi, hit_points[hb, hi], positions[hb, hi]  # each hit is relocated once


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
    observes the state after step k (0-based); ``jumps`` are the step's
    (replica, index, hit point, target) arrays of ``_step_inplace``."""
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
        events.extend(JumpEvent(time, int(i), tuple(float(v) for v in y),
                                tuple(float(v) for v in target),
                                float(np.linalg.norm(target - y)))
                      for i, y, target in zip(*jumps[1:]))  # one replica
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


_MAX_EXIT_STEPS = 10**7  # first_exit_batch gives up on configurations this slow
_BLOCK = 4096  # atom coordinates a resolvent observes per cylinder_value_many call


def first_exit_batch(domain: Domain, starts, dt, rng):
    """Vectorized first-exit for a stack of independent configurations.

    ``starts`` has shape (B, n, d).  Each configuration diffuses without
    relocation until one of its particles hits the boundary; finished
    configurations are retired from the working arrays.  Returns
    (finals (B,n,d), hit_index (B,), taus (B,)): finals[b, hit_index[b]] is
    the boundary hit point, the other rows are interior (later hitters in
    the same step stay at their pre-step positions — at tau they had not
    exited yet), and tau is the within-step interpolated hit time.
    """
    pos = np.asarray(starts, dtype=float).copy()
    if pos.ndim != 3:
        raise ValueError("starts must have shape (B, n, d)")
    B, n, d = pos.shape
    sqrt_dt = math.sqrt(dt)
    finals = np.empty_like(pos)
    hit_index = np.full(B, -1, dtype=int)
    taus = np.full(B, np.nan)
    alive = np.arange(B)
    for k in range(_MAX_EXIT_STEPS):
        if len(alive) == 0:
            return finals, hit_index, taus
        A = len(alive)
        prop = pos + rng.normal(0.0, sqrt_dt, size=(A, n, d))
        u_bridge = rng.random((A, n, d, 2))
        hit, theta, points = _detect_hits(domain, pos, prop, dt, u_bridge)
        rows = np.flatnonzero(hit.any(axis=1))  # finished configurations
        if len(rows):
            # each finished configuration's first hitter in the step wins
            winner = np.argmin(np.where(hit[rows], theta[rows], np.inf), axis=1)
            b = alive[rows]
            taus[b] = k * dt + theta[rows, winner] * dt
            fin = np.where(hit[rows][..., None], pos[rows], prop[rows])
            fin[np.arange(len(rows)), winner] = points[rows, winner]
            finals[b] = fin
            hit_index[b] = winner
            keep = np.ones(A, dtype=bool)
            keep[rows] = False
            prop, alive = prop[keep], alive[keep]
        pos = prop
    raise RuntimeError(f"{len(alive)} configurations never exited in {_MAX_EXIT_STEPS} steps")


def _as_seedseq(seed):
    """``seed`` as a SeedSequence; one passed in is returned as it is."""
    return seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)


def run_replicas(M, seed, worker, jobs=1):
    """Evaluate ``worker(rng, replica_index)`` for M replicas on independent
    Philox streams seeded by M children of ``seed`` (or by ``seed``, a list of
    M SeedSequences); results come back in replica order for any ``jobs``."""
    children = seed if isinstance(seed, list) else _as_seedseq(seed).spawn(M)

    def task(m):
        rng = np.random.Generator(np.random.Philox(children[m]))
        return worker(rng, m)

    if jobs and jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(task, range(M)))
    return [task(m) for m in range(M)]


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
    """Per replica of each (M, seed) of ``sets``, its stream and an n-particle
    start drawn from the initial law with it, through one ``run_replicas`` call
    on ``jobs`` threads; returns the starts as one stack and the streams."""
    def worker(rng, _m):
        return rng, sample_initial_configuration(law, n, rng)

    children = [child for M, seed in sets for child in _as_seedseq(seed).spawn(M)]
    rngs, starts = zip(*run_replicas(len(children), children, worker, jobs))
    return np.stack(starts), rngs


def _stacked_estimates(law: InitialLaw, n, dt, kernel: RelocationKernel, jobs, estimators):
    """What ``semigroup_estimate`` or ``resolvent_estimate`` returns for each
    ("semigroup", g, psi, t, M, seed) or ("resolvent", g, psi, beta, M, seed)
    of ``estimators`` (a resolvent ignores psi), all replicas stepping as one
    stack in order of step count.  One that reaches its count is read, and the
    rest of the stack steps on in place, so each replica steps as it would alone.
    A resolvent copies its rows at the start and after each step, and observes
    the copies in one call once they hold ``_BLOCK`` atom coordinates, and when read."""
    for kind, _g, _psi, x, M, _seed in estimators:
        if kind == "resolvent" and x <= 0:
            raise ValueError("beta must be positive")
        if M < 2:
            raise ValueError("need at least two replicas for a standard error")
    basis = law.basis
    # a resolvent's count is 12/beta rounded up to whole steps, once _step_count has checked dt
    steps = [_step_count(dt, dt) * math.ceil(12.0 / x / dt) if kind == "resolvent"
             else _step_count(x, dt) for kind, _g, _psi, x, _M, _seed in estimators]
    order = sorted(range(len(estimators)), key=steps.__getitem__)
    pos, rngs = _replica_starts(law, n, [estimators[e][4:] for e in order], jobs)
    at = np.cumsum([0] + [estimators[e][4] for e in order])  # each estimator's first row
    rows = {e: pos[at[i]:at[i + 1]] for i, e in enumerate(order)}  # views, stepped in place
    # a semigroup's psi at the start; a resolvent's g, observed on copies of its rows
    seen = {e: [cylinder_value_many(psi, rows[e], basis)] if kind == "semigroup" else []
            for e, (kind, _g, psi, *_) in enumerate(estimators)}
    kept = {e: [rows[e].copy()] for e, (kind, *_) in enumerate(estimators) if kind == "resolvent"}

    def observe(e, block):  # once a resolvent's copies hold ``block`` atom coordinates
        if len(kept[e]) * rows[e].size >= block:
            seen[e].append(cylinder_value_many(estimators[e][1], np.concatenate(kept[e]), basis))
            kept[e].clear()

    def keep(_k, _time, _jumps):  # every resolvent not yet read
        for e in kept:
            kept[e].append(rows[e].copy())
            observe(e, _BLOCK)

    out = {}
    for i, (e, taken) in enumerate(zip(order, [0] + sorted(steps))):
        kind, g, _psi, beta, M, _seed = estimators[e]
        advance_steps(basis.domain, pos[at[i]:], steps[e] - taken, dt, kernel, rngs[at[i]:],
                      on_step=keep)
        if kind == "semigroup":
            out[e] = mean_and_stderr(cylinder_value_many(g, rows[e], basis) * seen[e][0])
            continue
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
