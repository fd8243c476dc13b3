"""The n-particle process: Brownian increments, boundary-hit detection with
Brownian-bridge correction, instantaneous relocation, and Monte Carlo
estimators for the process semigroup and resolvent.

Determinism contract: every replica owns a counter-based RNG stream spawned
from the master seed by replica index, and every cross-replica reduction is
an ordered compensated sum — so results are bit-identical for any worker
count.  Within a step the RNG consumption is fixed (one Gaussian block, one
bridge-uniform block) regardless of outcomes, so paths are reproducible.

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
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .geometry import Domain
from .kernels import (InitialLaw, RelocationKernel, mixture_terms, sample_initial_configuration,
                      sample_relocation)
from .measures import CylinderFunction, EmpiricalMeasure, cylinder_value

__all__ = [
    "JumpEvent",
    "ParticleConfig",
    "TrajectoryResult",
    "step",
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


@dataclass(eq=False)
class ParticleConfig:
    """Mutable simulation state: interior positions, clock, log, RNG stream."""

    domain: Domain
    positions: np.ndarray
    time: float = 0.0
    jump_log: list = field(default_factory=list)
    rng: np.random.Generator = None

    def __post_init__(self):
        self.positions = np.atleast_2d(np.asarray(self.positions, dtype=float)).copy()
        if not np.all(self.domain.contains_many(self.positions)):
            raise ValueError("all particles must start interior")
        if self.rng is None:
            self.rng = np.random.default_rng()

    @property
    def n(self) -> int:
        return len(self.positions)

    def empirical(self) -> EmpiricalMeasure:
        return EmpiricalMeasure(self.domain, self.positions.copy())

    def copy(self):
        cfg = ParticleConfig(
            self.domain, self.positions.copy(), self.time, list(self.jump_log), self.rng
        )
        return cfg


def _detect_hits(domain, pos, prop, dt, u_bridge):
    """Classify each particle's step.

    Returns (hit_mask, theta, hit_points): theta is the within-step hit
    fraction, hit_points the boundary location; both are meaningful only
    where hit_mask is set.
    """
    n, d = pos.shape
    lo = np.asarray(domain.lo)
    hi = np.asarray(domain.hi)
    inside = domain.contains_many(prop)

    # bridge gaps to each face; the test only applies where both ends are
    # interior, which the `inside` split guarantees for the rows used
    gap_lo_p, gap_lo_q = pos - lo, prop - lo
    gap_hi_p, gap_hi_q = hi - pos, hi - prop
    with np.errstate(over="ignore"):
        p_lo = np.exp(-2.0 * gap_lo_p * np.maximum(gap_lo_q, 0.0) / dt)
        p_hi = np.exp(-2.0 * gap_hi_p * np.maximum(gap_hi_q, 0.0) / dt)
    fire_lo = u_bridge[:, :, 0] < p_lo
    fire_hi = u_bridge[:, :, 1] < p_hi
    bridge_hit = inside & (fire_lo.any(axis=1) | fire_hi.any(axis=1))

    hit_mask = ~inside | bridge_hit
    theta = np.full(n, np.nan)
    hit_points = np.full((n, d), np.nan)
    for i in np.flatnonzero(hit_mask):
        if not inside[i]:
            y = domain.project_to_boundary(pos[i], prop[i])
            seg = prop[i] - pos[i]
            ax = int(np.argmax(np.abs(seg) > 0)) if np.any(seg) else 0
            th = (y[ax] - pos[i][ax]) / seg[ax] if seg[ax] != 0.0 else 0.0
        else:
            # among fired faces pick the most probable crossing
            best_p, best = -1.0, None
            for ax in range(d):
                if fire_lo[i, ax] and p_lo[i, ax] > best_p:
                    best_p, best = p_lo[i, ax], (ax, lo[ax], gap_lo_p[i, ax], gap_lo_q[i, ax])
                if fire_hi[i, ax] and p_hi[i, ax] > best_p:
                    best_p, best = p_hi[i, ax], (ax, hi[ax], gap_hi_p[i, ax], gap_hi_q[i, ax])
            ax, face, a, b = best
            th = a / (a + b) if a + b > 0 else 0.0
            y = pos[i] + th * (prop[i] - pos[i])
            y[ax] = face
        theta[i] = min(max(th, 0.0), 1.0)
        hit_points[i] = y
    return hit_mask, theta, hit_points


def _step_inplace(domain, positions, time, dt, kernel, rng):
    """Advance one step, mutating ``positions``; returns the jump events.

    Relocation happens at the step's end: hit particles are processed in
    ascending index, each drawing its target from the other n-1 particles'
    current positions (post-step for non-hit, already-relocated for earlier
    hits, pre-step for pending later hits).  The kernel's per-atom terms are
    evaluated once for all n rows and refreshed at each relocated row.
    """
    n, d = positions.shape
    incr = rng.normal(0.0, math.sqrt(dt), size=(n, d))
    prop = positions + incr
    u_bridge = rng.random((n, d, 2))
    hit_mask, _theta, hit_points = _detect_hits(domain, positions, prop, dt, u_bridge)

    events = []
    new_time = time + dt
    if not hit_mask.any():
        positions[:] = prop
        return new_time, events

    work = np.where(hit_mask[:, None], positions, prop)
    terms = mixture_terms(kernel, work)
    for i in np.flatnonzero(hit_mask):
        others = np.delete(work, i, axis=0)
        if terms is None:
            target = sample_relocation(kernel, others, rng)
        else:
            target = sample_relocation(kernel, others, rng, np.delete(terms, i, axis=2))
            terms[..., i] = mixture_terms(kernel, target[None, :])[..., 0]
        work[i] = target
        y = hit_points[i]
        events.append(
            JumpEvent(
                time=new_time,
                index=int(i),
                jump_off=tuple(float(v) for v in y),
                target=tuple(float(v) for v in target),
                distance=float(np.linalg.norm(target - y)),
            )
        )
    positions[:] = work
    return new_time, events


def advance_steps(domain, positions, n_steps, dt, kernel, rng, time=0.0, on_step=None):
    """In-place multi-step advance; returns the new time.  ``on_step(k,
    time, events)``, if given, observes the state after step k (0-based)."""
    for k in range(n_steps):
        time, events = _step_inplace(domain, positions, time, dt, kernel, rng)
        if on_step is not None:
            on_step(k, time, events)
    return time


def step(cfg: ParticleConfig, dt, kernel: RelocationKernel) -> ParticleConfig:
    """One time step of size dt; returns the advanced configuration (the RNG
    stream is shared with the input, which should be discarded)."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    out = cfg.copy()
    new_time, events = _step_inplace(
        out.domain, out.positions, out.time, dt, kernel, out.rng
    )
    out.time = new_time
    out.jump_log = out.jump_log + events
    return out


@dataclass
class TrajectoryResult:
    times: np.ndarray
    observable_names: list
    values: np.ndarray  # (n_records, n_observables)
    jump_counts: np.ndarray  # cumulative, per record
    events: list
    final: ParticleConfig


def run(cfg0: ParticleConfig, T, dt, kernel: RelocationKernel, observables,
        basis=None, record_stride=1) -> TrajectoryResult:
    """Run to horizon T, recording cylinder observables of the empirical
    measure every ``record_stride`` steps (and at time 0)."""
    if T <= 0:
        raise ValueError("horizon must be positive")
    if dt <= 0:
        raise ValueError("dt must be positive")
    n_steps = int(round(T / dt))
    cfg = cfg0.copy()
    events = list(cfg.jump_log)

    def observe():
        emp = EmpiricalMeasure(cfg.domain, cfg.positions.copy())
        return [cylinder_value(f, emp, basis) for f in observables]

    times = [cfg.time]
    rows = [observe()]
    counts = [len(events)]

    def record(k, time, new_events):
        events.extend(new_events)
        if (k + 1) % record_stride == 0 or k == n_steps - 1:
            times.append(time)
            rows.append(observe())
            counts.append(len(events))

    cfg.time = advance_steps(cfg.domain, cfg.positions, n_steps, dt, kernel, cfg.rng,
                             cfg.time, on_step=record)
    cfg.jump_log = events
    return TrajectoryResult(
        times=np.array(times),
        observable_names=[f.name for f in observables],
        values=np.array(rows),
        jump_counts=np.array(counts),
        events=events,
        final=cfg,
    )


def first_exit_batch(domain: Domain, starts, dt, rng, max_steps=10**7):
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
    lo = np.asarray(domain.lo)
    hi = np.asarray(domain.hi)
    sqrt_dt = math.sqrt(dt)
    finals = np.empty_like(pos)
    hit_index = np.full(B, -1, dtype=int)
    taus = np.full(B, np.nan)
    alive = np.arange(B)
    for k in range(max_steps):
        if len(alive) == 0:
            return finals, hit_index, taus
        A = len(alive)
        incr = rng.normal(0.0, sqrt_dt, size=(A, n, d))
        prop = pos + incr
        u_bridge = rng.random((A, n, d, 2))
        inside = np.all((prop > lo) & (prop < hi), axis=-1)  # (A, n)
        with np.errstate(over="ignore"):
            p_lo = np.exp(-2.0 * (pos - lo) * np.maximum(prop - lo, 0.0) / dt)
            p_hi = np.exp(-2.0 * (hi - pos) * np.maximum(hi - prop, 0.0) / dt)
        fire = (u_bridge[..., 0] < p_lo) | (u_bridge[..., 1] < p_hi)
        hit = ~inside | (inside & fire.any(axis=-1))  # (A, n)
        cfg_hit = hit.any(axis=1)
        if cfg_hit.any():
            for a in np.flatnonzero(cfg_hit):
                mask, theta, pts = _detect_hits(domain, pos[a], prop[a], dt, u_bridge[a])
                hits = np.flatnonzero(mask)
                winner = int(hits[np.argmin(theta[hits])])
                b = alive[a]
                taus[b] = k * dt + float(theta[winner]) * dt
                fin = np.where(mask[:, None], pos[a], prop[a])
                fin[winner] = pts[winner]
                finals[b] = fin
                hit_index[b] = winner
            keep = ~cfg_hit
            pos = prop[keep]
            alive = alive[keep]
        else:
            pos = prop
    raise RuntimeError(f"{len(alive)} configurations never exited in {max_steps} steps")


def run_replicas(M, seed, worker, jobs=1):
    """Evaluate ``worker(rng, replica_index)`` for M replicas on independent
    counter-based streams; results come back in replica order regardless of
    the worker count."""
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    children = ss.spawn(M)

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


def _sample_and_advance(law: InitialLaw, n, t, dt, kernel: RelocationKernel, rng):
    """Draw an n-particle start from the initial law and advance a copy of
    it by round(t/dt) steps; returns (start, state at t)."""
    domain = law.basis.domain
    start = sample_initial_configuration(law, n, rng)
    pos = start.positions.copy()
    advance_steps(domain, pos, int(round(t / dt)), dt, kernel, rng)
    return start, EmpiricalMeasure(domain, pos)


def semigroup_estimate(law: InitialLaw, g: CylinderFunction, psi: CylinderFunction,
                       t, n, M, dt, kernel: RelocationKernel, seed, jobs=1):
    """Monte Carlo for the pairing of the time-t semigroup applied to g with
    psi under the n-particle initial law: mean over replicas of
    g(state at t) * psi(state at 0)."""
    if M < 2:
        raise ValueError("need at least two replicas for a standard error")
    basis = law.basis

    def worker(rng, _m):
        start, state = _sample_and_advance(law, n, t, dt, kernel, rng)
        return cylinder_value(g, state, basis) * cylinder_value(psi, start, basis)

    vals = run_replicas(M, seed, worker, jobs)
    return mean_and_stderr(vals)


def resolvent_estimate(law: InitialLaw, g: CylinderFunction, beta, n, M, dt,
                       kernel: RelocationKernel, seed, jobs=1):
    """Monte Carlo for the beta-resolvent of g under the n-particle process,
    by exact exponential-weight quadrature of the observed trajectory up to
    T_cut = 12/beta.  Returns (estimate, stderr, tail_bound), the tail bound
    using the largest |g| value seen."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    if M < 2:
        raise ValueError("need at least two replicas for a standard error")
    basis = law.basis
    domain = basis.domain
    t_cut = 12.0 / beta
    n_steps = int(math.ceil(t_cut / dt))
    # integral of e^{-beta t} over each step, plus the tail frozen at T_cut
    edges = np.exp(-beta * dt * np.arange(n_steps + 1))
    weights = np.append((edges[:-1] - edges[1:]) / beta, edges[-1] / beta)

    def worker(rng, _m):
        pos = sample_initial_configuration(law, n, rng).positions.copy()
        vals = []

        def observe(*_step):
            vals.append(cylinder_value(g, EmpiricalMeasure(domain, pos), basis))

        observe()
        advance_steps(domain, pos, n_steps, dt, kernel, rng, on_step=observe)
        return math.fsum(np.asarray(vals) * weights), max(abs(v) for v in vals)

    vals, sups = zip(*run_replicas(M, seed, worker, jobs))
    est, err = mean_and_stderr(vals)
    return est, err, max(sups) * math.exp(-beta * t_cut) / beta


# -- artifacts ----------------------------------------------------------------


def _write_meta_line(fh, meta):
    if meta:
        fh.write("# " + " ".join(f"{k}={v}" for k, v in meta.items()) + "\n")


def write_trajectory_csv(path, result: TrajectoryResult, meta=None):
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


def write_jump_log_csv(path, events, dimension, meta=None):
    """Columns: time, particle, jump-off point, relocation target, distance."""
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
