import json
import math
import os
import subprocess
import sys
import threading
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest

from flemvi import __version__, kernels, simulator
from flemvi.geometry import interval, rectangle
from flemvi.kernels import (InitialLaw, KernelKind, RelocationKernel, admissible_from_perturbation,
                            mixture_terms, sample_curvature_weighted, sample_ground_mode,
                            sample_initial_configuration, sample_relocation)
from flemvi.measures import (CylinderFunction, EmpiricalMeasure, cylinder_value,
                             cylinder_value_many, pair)
from flemvi.verify import convergence_experiment, operator_limit_checks
from flemvi.simulator import (
    JumpEvent,
    _detect_hits,
    advance_steps,
    config_hash,
    first_exit_batch,
    mean_and_stderr,
    resolvent_estimate,
    run,
    run_replicas,
    semigroup_estimate,
    write_jump_log_csv,
    write_manifest,
    write_trajectory_csv,
)

PI = math.pi
DOM = interval(0.0, PI)
RECT = rectangle(0.0, PI, 0.0, 1.5)


def _rng(seed):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def _kernel(law):
    return RelocationKernel.mixture_reweighted(law)


# -- stepping ------------------------------------------------------------------

def test_step_determinism(stationary_law):
    kernel = _kernel(stationary_law)
    a, b = (run([[1.0], [2.0]], _rng(3), 0.5, 0.01, kernel, [], stationary_law.basis)
            for _ in range(2))
    np.testing.assert_array_equal(a.final, b.final)
    assert a.times[-1] == b.times[-1]
    assert len(a.events) == len(b.events)


def test_step_keeps_particles_interior(stationary_law):
    kernel = _kernel(stationary_law)
    # recording at every step pairs each state, which raises on an atom
    # outside the open interval
    result = run([[0.05], [3.1]], _rng(7), 1.0, 0.005, kernel, [CylinderFunction.constant(1.0)],
                 basis=stationary_law.basis)
    assert len(result.times) == 201
    assert np.all(DOM.contains_many(result.final))
    assert len(result.events) > 0  # starting near the boundary must cause jumps


def test_jump_events_well_formed(stationary_law):
    kernel = _kernel(stationary_law)
    T, dt = 0.5, 0.005
    result = run([[0.05], [1.0], [3.0]], _rng(11), T, dt, kernel, [CylinderFunction.constant(1.0)],
                 basis=stationary_law.basis)
    assert len(result.events) > 0
    times = [ev.time for ev in result.events]
    assert times == sorted(times)
    for ev in result.events:
        assert 0.0 < ev.time <= T + 1e-12
        assert 0 <= ev.index < 3
        assert DOM.on_boundary(np.array(ev.jump_off), tol=1e-9)
        assert DOM.contains(np.array(ev.target))
        assert ev.distance >= 0.0


def _reference_relocation(kernel, positions, i, rng):
    """One relocation as the per-hit loop drew it: a ground-mode point, a
    uniformly chosen other atom, or a mixture component by ``rng.choice`` on the
    exact weights of the other atoms, then one rejection sample of it."""
    if kernel.kind is KernelKind.GROUND_MODE:
        return sample_ground_mode(kernel.basis, rng, 1)[0]
    if kernel.kind is KernelKind.UNIFORM_SURVIVOR:
        j = int(rng.integers(len(positions) - 1))
        return positions[j + (j >= i)].copy()
    law = kernel.law
    log_num = kernels._mixture_log_weights(law, kernels._atom_terms(law, np.delete(positions, i, axis=0)))
    alpha = np.exp(log_num - kernels._logsumexp(log_num))
    m = int(rng.choice(len(alpha), p=alpha / math.fsum(alpha)))
    return law.components[m][1].sample(rng, 1)[0]


def _reference_step(domain, positions, time, dt, kernel, rng):
    """One step of one configuration with the scalar hit resolver and one
    relocation per hit, each evaluating its weights from scratch."""
    n, d = positions.shape
    prop = positions + rng.normal(0.0, math.sqrt(dt), size=(n, d))
    hit_mask, hit_points = _scalar_detect_hits(domain, positions, prop, dt, rng)
    work = np.where(hit_mask[:, None], positions, prop)
    events = []
    for i in np.flatnonzero(hit_mask):
        target = _reference_relocation(kernel, work, i, rng)
        work[i] = target
        y = hit_points[i]
        events.append(JumpEvent(time + dt, int(i), tuple(float(v) for v in y),
                                tuple(float(v) for v in target),
                                float(np.linalg.norm(target - y))))
    positions[:] = work
    return time + dt, events


def test_per_step_mixture_terms_match_from_scratch(perturbed_law, basis_2d, monkeypatch):
    law_2d = InitialLaw(((0.6, admissible_from_perturbation(basis_2d, {})),
                         (0.4, admissible_from_perturbation(basis_2d, {2: 0.05}))))
    for law, n, dt, most in ((perturbed_law, 200, 0.01, 3), (law_2d, 20, 0.01, 2)):
        _check_stacked_step(_kernel(law), law, n, 30, dt, most, monkeypatch)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("kind", ["ground_mode", "uniform_survivor", "comparison_c=25"])
def test_rank_pass_matches_the_per_hit_loop(basis_1d, basis_2d, monkeypatch, dim, kind):
    """Kernels that use no terms take the same rank pass; with c = 25 a row's
    first round of 64 proposals accepts none w.p. about 0.2 and continues."""
    basis = basis_1d if dim == 1 else basis_2d
    law = InitialLaw.single(admissible_from_perturbation(basis, {}))
    kernel = {"ground_mode": RelocationKernel.ground_mode(basis),
              "uniform_survivor": RelocationKernel.uniform_survivor(),
              "comparison_c=25": _kernel(InitialLaw.single(admissible_from_perturbation(
                  basis, {}, c=25.0)))}[kind]
    continued = []
    sample = kernels.AdmissibleDensity.sample
    monkeypatch.setattr(kernels.AdmissibleDensity, "sample",
                        lambda self, rng, size: continued.append(size) or sample(self, rng, size))
    hits = _check_stacked_step(kernel, law, 60 if dim == 1 else 20, 30, 0.01, 2, monkeypatch)
    extra = len(continued) - 3  # beyond the three starts
    if kind == "comparison_c=25":  # the reference samples once per hit, the pass only to continue
        assert extra > hits.sum()
    else:
        assert extra == 0


def _check_stacked_step(kernel, law, n, n_steps, dt, most, monkeypatch):
    """Three replicas stepped as one stack against ``_reference_step`` run on
    each alone, which relocates hit by hit; some replica has ``most`` or more
    hits in one step."""
    domain, B = law.basis.domain, 3
    starts = np.stack([sample_initial_configuration(law, n, _rng(21 + b)) for b in range(B)])
    uses_terms = mixture_terms(kernel, starts) is not None
    ref_pos, ref_events, hits = starts.copy(), [[] for _ in range(B)], np.zeros((B, n_steps), int)
    for b in range(B):
        time, rng = 0.0, _rng(5 + b)
        for k in range(n_steps):
            time, events = _reference_step(domain, ref_pos[b], time, dt, kernel, rng)
            ref_events[b] += events
            hits[b, k] = len(events)
    assert (hits.max(axis=0) >= most).any()  # a replica with ``most`` or more hits in a step
    assert (hits.sum(axis=0) == 0).any()  # a step without a hit

    # every pass relocates one hit per replica, and every row's terms equal a
    # fresh evaluation on its other particles
    passes, calls = [], []

    def checked(kernel_, positions, i, rngs_, terms=None):
        assert len({id(r) for r in rngs_}) == len(rngs_) == len(positions) == len(i)
        assert (terms is not None) == uses_terms
        for r in range(len(i) if uses_terms else 0):
            others = np.delete(positions[r], i[r], axis=0)
            assert np.array_equal(np.delete(terms[:, :, r], i[r], axis=2), mixture_terms(kernel_, others))
        passes.append(len(i))
        return sample_relocation(kernel_, positions, i, rngs_, terms)

    def counted(*args):
        calls.append(args)
        return mixture_terms(*args)

    monkeypatch.setattr(simulator, "sample_relocation", checked)
    monkeypatch.setattr(simulator, "mixture_terms", counted)
    pos, jumps = starts.copy(), [[] for _ in range(B)]

    def record(_k, _t, new):
        hb, hi, p, q, faces, u, targets = new
        u = _drawn_uniforms(pos.shape, faces, u)[hb, hi]
        for b, i, y, z in zip(hb, hi, simulator._hit_points(domain, p, q, dt, u), targets):
            jumps[b].append((i, y, z))

    advance_steps(domain, pos, n_steps, dt, kernel, [_rng(5 + b) for b in range(B)],
                  on_step=record)
    # one pass per rank: as many per step as its most hits in one replica
    assert len(passes) == hits.max(axis=0).sum() and sum(passes) == hits.sum()
    # one term call per step with a hit, plus one refresh per rank that a later
    # rank reads: none after the step's last rank
    refreshes = np.maximum(hits.max(axis=0) - 1, 0).sum() if uses_terms else 0
    assert len(calls) == np.count_nonzero(hits.sum(axis=0)) + refreshes
    assert np.array_equal(pos, ref_pos)
    for b in range(B):
        assert [(int(i), tuple(y), tuple(z)) for i, y, z in jumps[b]] == \
            [(ev.index, ev.jump_off, ev.target) for ev in ref_events[b]]
    return hits


def test_run_recording_grid(stationary_law):
    kernel = _kernel(stationary_law)
    result = run([[1.0], [2.0]], _rng(1), 0.1, 0.001, kernel,
                 [CylinderFunction.coordinate(1)], basis=stationary_law.basis,
                 record_stride=10)
    assert len(result.times) == 11
    np.testing.assert_allclose(np.diff(result.times), 0.01, atol=1e-12)
    assert result.values.shape == (11, 1)
    assert np.all(np.diff(result.jump_counts) >= 0)


def test_run_requires_its_stream(stationary_law):
    # an unseeded default stream would break reproducibility
    with pytest.raises(TypeError, match="rng"):
        run([[1.0]], T=0.1, dt=0.01, kernel=_kernel(stationary_law), observables=[],
            basis=stationary_law.basis)


def test_run_checks_the_start(stationary_law, basis_2d):
    kernel_1d, kernel_2d = _kernel(stationary_law), RelocationKernel.ground_mode(basis_2d)
    with pytest.raises(ValueError, match="domain dimension"):
        run([[1.0, 1.0], [0.5, 1.5]], _rng(1), 0.1, 0.01, kernel_1d, [], stationary_law.basis)
    with pytest.raises(ValueError, match="domain dimension"):
        run([[1.0], [0.5]], _rng(1), 0.1, 0.01, kernel_2d, [], basis_2d)
    with pytest.raises(ValueError, match="outside the open domain"):
        run([[1.0], [PI]], _rng(1), 0.1, 0.01, kernel_1d, [], stationary_law.basis)


def test_run_copies_the_state_but_advances_the_shared_stream(stationary_law):
    kernel, m1 = _kernel(stationary_law), [CylinderFunction.coordinate(1)]

    def go(start, rng):
        return run(start, rng, 0.1, 0.01, kernel, m1, stationary_law.basis)

    start, rng = np.array([[1.0], [2.0]]), _rng(3)
    first, second = go(start, rng), go(start, rng)
    np.testing.assert_array_equal(start, [[1.0], [2.0]])
    assert first.times[0] == second.times[0] == 0.0
    assert first.values[-1, 0] != second.values[-1, 0]
    fresh = go(start, _rng(3))
    np.testing.assert_array_equal(fresh.values, first.values)
    np.testing.assert_array_equal(fresh.final, first.final)


def test_run_rejects_bad_horizon(stationary_law):
    with pytest.raises(ValueError):
        run([[1.0]], _rng(1), 0.0, 0.01, _kernel(stationary_law), [], stationary_law.basis)
    with pytest.raises(ValueError):
        run([[1.0]], _rng(1), 1.0, -0.01, _kernel(stationary_law), [], stationary_law.basis)


@pytest.mark.parametrize("T", [0.004, 0.025])  # no step, and a count Python rounds down
def test_a_horizon_off_the_step_grid_raises(stationary_law, T):
    law, kernel, one = stationary_law, _kernel(stationary_law), CylinderFunction.constant(1.0)
    calls = [
        lambda: run([[1.0]], _rng(1), T, 0.01, kernel, [], law.basis),
        lambda: semigroup_estimate(law, one, one, T, 2, 4, 0.01, kernel, seed=1),
        lambda: operator_limit_checks(law, [("semigroup", one, one, T, 4, 1)], [2], 0.01, kernel),
        lambda: convergence_experiment(law, T, [2, 4], 4, 0.01, kernel, 1),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="horizon must be a positive whole multiple of dt"):
            call()


@pytest.mark.parametrize("dt", [0.0, -0.01])
@pytest.mark.parametrize("call", ["run", "semigroup", "resolvent", "convergence"])
def test_a_step_that_is_not_positive_raises(stationary_law, call, dt):
    law, kernel, one = stationary_law, _kernel(stationary_law), CylinderFunction.constant(1.0)
    calls = {
        "run": lambda: run([[1.0]], _rng(1), 0.1, dt, kernel, [], law.basis),
        "semigroup": lambda: semigroup_estimate(law, one, one, 0.1, 2, 4, dt, kernel, seed=1),
        "resolvent": lambda: resolvent_estimate(law, one, 3.0, 2, 4, dt, kernel, seed=1),
        "convergence": lambda: convergence_experiment(law, 0.1, [2, 4], 4, dt, kernel, 1),
    }
    with pytest.raises(ValueError, match="dt must be positive"):
        calls[call]()


@pytest.mark.parametrize("stride", [0, -3, 2.5])
def test_run_rejects_a_stride_that_is_not_a_positive_integer(stationary_law, stride):
    with pytest.raises(ValueError, match="record_stride must be a positive integer"):
        run([[1.0]], _rng(1), 0.1, 0.01, _kernel(stationary_law), [], stationary_law.basis,
            record_stride=stride)


# -- hit resolution ------------------------------------------------------------

class _Feed:
    """A stream stand-in that hands out the given uniforms in order, one at a time
    (``random()``) or a block at a time (``random(out=...)``), and counts them."""

    def __init__(self, values):
        self.values, self.drawn = list(values), 0

    def random(self, out=None):
        k = 1 if out is None else len(out)
        got = self.values[self.drawn:self.drawn + k]
        assert len(got) == k, "more uniforms drawn than given"
        self.drawn += k
        if out is None:
            return got[0]
        out[:] = got
        return out


def _position(stream):
    """How far a stream has drawn: its count, or a generator's next uniform."""
    return stream.drawn if isinstance(stream, _Feed) else stream.random()


def _clone(rng):
    """A Philox generator at ``rng``'s position."""
    twin = np.random.Generator(np.random.Philox())
    twin.bit_generator.state = rng.bit_generator.state
    return twin


def _drawn_uniforms(shape, faces, u):
    """The bridge uniforms (B, n, d, 2) of a stack of shape (B, n, d) whose drawn faces
    ``faces`` (flat indices) hold ``u``, and every other face 1.0, which never fires."""
    drawn = np.ones(2 * math.prod(shape))
    drawn[faces] = u
    return drawn.reshape(shape + (2,))


def _scalar_detect_hits(domain, pos, prop, dt, rng):
    """The per-row hit resolver that ``_detect_hits`` and ``_hit_points`` replaced, kept as
    their reference on one (n, d) configuration: it draws one uniform from ``rng`` for each
    face whose bridge exponent is above -37, atom by atom, axis by axis, lo before hi, and a
    face fires where its uniform is below ``_portable_exp`` of its exponent.  Returns the
    hit mask and the hit points, NaN where no hit."""
    n, d = pos.shape
    lo = np.asarray(domain.lo)
    hi = np.asarray(domain.hi)
    inside = domain.contains_many(prop)

    # the bridge exponents; a face that an end outside the box passed has -0, probability 1
    gap_lo_p, gap_lo_q = pos - lo, prop - lo
    gap_hi_p, gap_hi_q = hi - pos, hi - prop
    e_lo = -2.0 * gap_lo_p * np.maximum(gap_lo_q, 0.0) / dt
    e_hi = -2.0 * gap_hi_p * np.maximum(gap_hi_q, 0.0) / dt
    u_lo, u_hi = np.ones((n, d)), np.ones((n, d))
    for i in range(n):
        for ax in range(d):
            for e, u in ((e_lo, u_lo), (e_hi, u_hi)):
                if e[i, ax] > -37.0:
                    u[i, ax] = rng.random()
    fire_lo = u_lo < simulator._portable_exp(e_lo)
    fire_hi = u_hi < simulator._portable_exp(e_hi)
    hit_mask = fire_lo.any(axis=1) | fire_hi.any(axis=1)
    assert hit_mask[~inside].all()  # an end outside the box always hits

    hit_points = np.full((n, d), np.nan)
    for i in np.flatnonzero(hit_mask):
        if not inside[i]:
            y = domain.project_to_boundary(pos[i], prop[i])
        else:
            # among fired faces pick the largest exponent, the most probable crossing
            best_e, best = -np.inf, None
            for ax in range(d):
                if fire_lo[i, ax] and e_lo[i, ax] > best_e:
                    best_e, best = e_lo[i, ax], (ax, lo[ax], gap_lo_p[i, ax], gap_lo_q[i, ax])
                if fire_hi[i, ax] and e_hi[i, ax] > best_e:
                    best_e, best = e_hi[i, ax], (ax, hi[ax], gap_hi_p[i, ax], gap_hi_q[i, ax])
            ax, face, a, b = best
            th = a / (a + b) if a + b > 0 else 0.0
            y = pos[i] + th * (prop[i] - pos[i])
            y[ax] = face
        hit_points[i] = y
    return hit_mask, hit_points


def _assert_resolver_matches(domain, pos, prop, dt, streams):
    """``_detect_hits``' mask on a (B, n, d) block drawing from ``streams()``, and
    ``_hit_points`` on the masked rows, equal the scalar resolver on each configuration
    drawing from another ``streams()``, bit for bit, and both draw as much; returns the
    mask and the points, NaN where no hit."""
    ours, ref = streams(), streams()
    hit, faces, u = _detect_hits(domain, pos, prop, dt, ours)
    assert hit.shape == pos.shape[:-1]
    points = np.full(pos.shape, np.nan)
    points[hit] = simulator._hit_points(domain, pos[hit], prop[hit], dt,
                                        _drawn_uniforms(pos.shape, faces, u)[hit])
    for b in range(len(pos)):
        ref_hit, ref_points = _scalar_detect_hits(domain, pos[b], prop[b], dt, ref[b])
        assert np.array_equal(hit[b], ref_hit)
        assert np.array_equal(points[b], ref_points, equal_nan=True)
        assert _position(ours[b]) == _position(ref[b])
    return hit, points


@pytest.mark.parametrize("dt,domain,screen", [
    pytest.param(dt, domain, screen, id=f"{dt}-{name}" + ("-screened" if screen else ""))
    for screen in (False, True)
    for name, domain in (("1d", DOM), ("2d", RECT), ("far", interval(1e9, 1e9 + PI)))
    for dt in (1e-3, 0.02)])
def test_detect_hits_matches_scalar_resolver(domain, dt, screen, monkeypatch):
    """Screened, a stack takes exponents only of its atoms near a wall."""
    monkeypatch.setattr(simulator, "_SCREEN_FROM", 0 if screen else 10**9)
    rng = _rng(41)
    lo, hi = np.array(domain.lo), np.array(domain.hi)
    B, n, d = 40, 25, domain.dimension
    # starts crowd the boundary so that exits and bridge fires are both common
    pos = lo + (hi - lo) * rng.beta(0.3, 0.3, size=(B, n, d))
    pos = np.clip(pos, np.maximum(lo + 1e-9, np.nextafter(lo, hi)),
                  np.minimum(hi - 1e-9, np.nextafter(hi, lo)))  # interior far from 0 too
    prop = pos + rng.normal(0.0, 3.0 * math.sqrt(dt), size=(B, n, d))
    hit, _ = _assert_resolver_matches(domain, pos, prop, dt,
                                      lambda: [_rng(100 + b) for b in range(B)])
    exits = ~domain.contains_many(prop)
    assert exits.sum() > 50 and (hit & ~exits).sum() > 50


NEVER, ALWAYS = [1.0 - 2.0**-53] * 4, [0.0] * 4  # a row's bridge uniforms: the largest, the least


def test_detect_hits_crafted_cases():
    dom = rectangle(0.0, 1.0, 0.0, 2.0)
    cases = [
        # corner exits: through the corner, nearer one face, then the other
        ((0.1, 0.1), (-0.1, -0.1), NEVER),
        ((0.1, 0.2), (-0.2, -0.1), NEVER),
        ((0.95, 1.9), (1.2, 2.05), NEVER),
        # equal t on two axes away from the corner point
        ((0.2, 0.4), (-0.2, -0.4), NEVER),
        # zero displacement on one axis
        ((0.5, 0.1), (0.5, -0.2), NEVER),
        ((0.05, 1.0), (-0.1, 1.0), NEVER),
        # interior steps where every drawn bridge face fires: the larger exponent wins
        ((0.02, 1.0), (0.03, 1.0), ALWAYS),
        ((0.97, 0.03), (0.98, 0.02), ALWAYS),
        # no hit: no face is drawn at exponents of -50 and below
        ((0.5, 1.0), (0.5, 1.0), ALWAYS),
        ((0.5, 1.0), (0.51, 1.01), NEVER),
    ]
    pos = np.array([[c[0]] for c in cases])
    prop = np.array([[c[1]] for c in cases])
    hit, points = _assert_resolver_matches(dom, pos, prop, 0.01,
                                           lambda: [_Feed(c[2]) for c in cases])
    assert hit[:, 0].tolist() == [True] * 8 + [False] * 2
    np.testing.assert_array_equal(points[0, 0], [0.0, 0.0])  # first axis on a tie

    # both faces of the narrow axis fire; the nearer one is more probable, lo before hi on ties
    narrow = rectangle(0.0, 1.0, 0.0, 0.04)
    pos = np.array([[[0.5, 0.015]], [[0.5, 0.03]], [[0.5, 0.02]]])
    prop = np.array([[[0.5, 0.02]], [[0.5, 0.025]], [[0.5, 0.02]]])
    _, points = _assert_resolver_matches(narrow, pos, prop, 0.01,
                                         lambda: [_Feed(ALWAYS) for _ in range(3)])
    assert points[0, 0, 1] == 0.0 and points[1, 0, 1] == 0.04 and points[2, 0, 1] == 0.0


@pytest.mark.parametrize("screen", [False, True], ids=["faces", "screened"])
def test_bridge_draws_only_where_a_face_can_fire(screen, monkeypatch):
    """On (0, 1000) at dt = 1 an atom at 1 that steps to b has lo-face exponent -2b; its hi
    face (-2 * 999 * (1000 - b) and below) draws nothing.  A face at e <= -37 draws no
    uniform, so it never fires, not even where u = 0 < exp(e) (e = -37, -37.1, -745); an end
    outside the box draws one and fires; near p = exp(e) the portable exp decides, at an e
    where numpy's exp differs from it if there is one."""
    monkeypatch.setattr(simulator, "_SCREEN_FROM", 0 if screen else 10**9)
    grid = -np.linspace(0.01, 36.0, 4001)
    differ = grid[np.exp(grid) != simulator._portable_exp(grid)]
    dom, e = interval(0.0, 1000.0), float(differ[0]) if len(differ) else -0.5
    p = float(simulator._portable_exp(np.array([e]))[0])
    p_numpy = float(np.exp(np.array([e]))[0])
    rows = [(-36.9, [0.0], True), (-37.0, [], False), (-37.1, [], False), (-745.0, [], False),
            (-746.0, [], False), ("out", [0.99], True),
            (e, [np.nextafter(p, 0.0)], True), (e, [p], False), (e, [np.nextafter(p, 1.0)], False),
            (e, [np.nextafter(p_numpy, 0.0)], np.nextafter(p_numpy, 0.0) < p),
            (e, [np.nextafter(p_numpy, 1.0)], np.nextafter(p_numpy, 1.0) < p)]
    pos = np.ones((len(rows), 1, 1))
    prop = np.array([[[-0.5 if r == "out" else -r / 2.0]] for r, _u, _fires in rows])
    feed = [u for _r, us, _fires in rows for u in us]
    hit, _ = _assert_resolver_matches(dom, pos.reshape(1, -1, 1), prop.reshape(1, -1, 1), 1.0,
                                      lambda: [_Feed(feed)])
    assert hit[0].tolist() == [fires for *_, fires in rows]
    want = simulator._faces(dom, pos[:, 0], prop[:, 0], 1.0)[2][:, 0]  # the lo faces' exponents
    assert want[:5].tolist() == [-36.9, -37.0, -37.1, -745.0, -746.0] and want[5] == 0.0
    # the rows one ulp either side of numpy's p take the portable decision as well
    u = np.array(feed[2:])
    assert simulator._fires(u, np.full(len(u), e)).tolist() == (u < p).tolist()


@pytest.mark.parametrize("lo", [0.0, 1e9])
def test_the_screen_keeps_every_face_that_can_fire(lo, monkeypatch):
    """Atoms that stay where they are, at the 81 floats around lo + sqrt(18.5 dt) and around
    hi - sqrt(18.5 dt), have exponents on both sides of -37: screened or not, a stack draws
    for the same faces and decides the same hits."""
    dom, dt = interval(lo, lo + 1000.0), 1e-3
    g = math.sqrt(18.5 * dt)

    def floats_around(v):  # the 81 floats from 40 below v to 40 above it
        for _ in range(40):
            v = np.nextafter(v, -np.inf)
        out = [v]
        for _ in range(80):
            out.append(np.nextafter(out[-1], np.inf))
        return out

    x = np.array(floats_around(dom.lo[0] + g) + floats_around(dom.hi[0] - g))[None, :, None]
    e = simulator._faces(dom, x, x, dt)[2]
    near = e[np.abs(e + 37.0) < 1e-3]
    assert (near > -37.0).any() and (near <= -37.0).any()
    got = []
    for screen_from in (0, 10**9):
        monkeypatch.setattr(simulator, "_SCREEN_FROM", screen_from)
        got.append(_detect_hits(dom, x, x, dt, [_rng(5)]))
    assert all(np.array_equal(a, b) for a, b in zip(*got))


def test_bridge_fires_at_the_crossing_probability():
    """Atoms at 1 that step to 0.25, 1 and 2 on (0, 1000) at dt = 1 have lo-face exponents
    -0.5, -2 and -4; over 10^5 atoms a replica's fire frequency is within 4 sigma of exp(e),
    and it draws one uniform per atom."""
    dom, N = interval(0.0, 1000.0), 100_000
    pos = np.ones((3, N, 1))
    prop = np.array([0.25, 1.0, 2.0])[:, None, None] * np.ones((3, N, 1))
    rngs = [_rng(200 + b) for b in range(3)]
    twins = [_clone(rng) for rng in rngs]
    hit, faces, u = _detect_hits(dom, pos, prop, 1.0, rngs)
    assert len(u) == 3 * N and np.array_equal(faces, np.arange(0, 6 * N, 2))
    for b, e in enumerate([-0.5, -2.0, -4.0]):
        want = math.exp(e)
        assert abs(hit[b].mean() - want) <= 4.0 * math.sqrt(want * (1.0 - want) / N)
        twins[b].random(N)
        assert rngs[b].random() == twins[b].random()


def test_portable_exp_is_within_one_ulp():
    """Against exp(e) to 40 digits on (-37, 0], and exact at 0, where ``_fires`` uses it."""
    e = np.concatenate([-37.0 * _rng(7).random(3000), -1e-3 * _rng(8).random(500),
                        [-36.9, -0.5 * math.log(2.0), -math.log(2.0), -1e-300]])
    got = simulator._portable_exp(e)
    with localcontext() as ctx:
        ctx.prec = 40
        ulps = [abs(Decimal(float(g)) - Decimal(float(x)).exp()) / Decimal(float(np.spacing(g)))
                for g, x in zip(got, e)]
    assert max(ulps) < 1
    assert simulator._portable_exp(np.array([-0.0, 0.0])).tolist() == [1.0, 1.0]


def test_bridge_fallback_is_rare_on_ladder_inputs(basis_1d, monkeypatch):
    """The ``ladder`` benchmark's convergence ladder (n = 50, 200, 800, 16 replicas, dt = 1e-3,
    horizon 0.03, two-component mixture relocation, K = 16) at seed 64: no candidate face
    falls back to the portable exp."""
    law = InitialLaw(((0.6, admissible_from_perturbation(basis_1d, {})),
                      (0.4, admissible_from_perturbation(basis_1d, {2: 0.05}))))
    fires, portable, counts = simulator._fires, simulator._portable_exp, [0, 0]

    def counted_fires(u, e):
        counts[0] += len(u)
        return fires(u, e)

    def counted_portable(e):
        counts[1] += len(e)
        return portable(e)

    monkeypatch.setattr(simulator, "_fires", counted_fires)
    monkeypatch.setattr(simulator, "_portable_exp", counted_portable)
    convergence_experiment(law, 0.03, [50, 200, 800], 16, 1e-3, _kernel(law), 64)
    candidates, fallbacks = counts
    assert candidates > 1000 and fallbacks * 10**6 <= candidates


_CPU_DECISIONS = """
import sys
import numpy as np
from flemvi import simulator
e, u = np.load(sys.argv[1])
np.save(sys.argv[2], np.stack([simulator._fires(u, e), u < np.exp(e)]))
"""


def test_bridge_decisions_do_not_depend_on_the_cpu(tmp_path):
    """Near-tie rows, u within 3 ulps of numpy's exp(e), decided by default and with every
    SIMD target the host found above numpy's baseline disabled: the decisions are equal,
    where numpy's own u < exp(e) is not."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    if not __cpu_features__.get("AVX512F"):
        pytest.skip("checks nothing on a host without AVX-512: numpy's exp takes one path")
    found = [name for name in __cpu_dispatch__ if __cpu_features__.get(name)]
    e = -37.0 * _rng(11).random(20_000)
    u = np.exp(e) + np.spacing(np.exp(e)) * _rng(12).integers(-3, 4, len(e))
    np.save(tmp_path / "rows.npy", np.stack([e, u]))
    src = os.path.dirname(os.path.dirname(simulator.__file__))
    masks = []
    for disabled in (None, " ".join(found)):
        env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
        env.update(PYTHONPATH=src, **({"NPY_DISABLE_CPU_FEATURES": disabled} if disabled else {}))
        out = tmp_path / f"mask{len(masks)}.npy"
        subprocess.run([sys.executable, "-c", _CPU_DECISIONS, str(tmp_path / "rows.npy"),
                        str(out)], env=env, check=True, timeout=120)
        masks.append(np.load(out))
    (ours, raw), (ours_off, raw_off) = masks
    assert np.array_equal(ours, ours_off)
    assert (raw != raw_off).any()  # numpy's exp moves between the two


def test_only_the_jump_log_resolves_hit_points(perturbed_law, basis_2d, monkeypatch):
    """Stepping decides who hit, and only ``run`` resolves where: the estimators step
    through hits without calling ``_hit_points``, and ``run``'s 2-D jump log, with exits
    and bridge fires, holds the scalar resolver's hit points."""
    steps, detect, resolve = [], simulator._detect_hits, simulator._hit_points

    def spied(domain, pos, prop, dt, rngs):
        twins = [_clone(rng) for rng in rngs]
        hit, faces, u = detect(domain, pos, prop, dt, rngs)
        steps.append((pos.copy(), prop.copy(), twins, hit))
        return hit, faces, u

    def refused(*_args):
        raise AssertionError("hit points resolved outside the jump log")

    monkeypatch.setattr(simulator, "_detect_hits", spied)
    monkeypatch.setattr(simulator, "_hit_points", refused)
    law, kernel = perturbed_law, _kernel(perturbed_law)
    semigroup_estimate(law, G2, CylinderFunction.coordinate(2), 0.2, 6, 4, 0.01, kernel, seed=1)
    resolvent_estimate(law, G2, 6.0, 5, 4, 0.01, kernel, seed=2)
    convergence_experiment(law, 0.2, [3, 6], 4, 0.01, kernel, 3)
    assert sum(int(hit.sum()) for *_, hit in steps) > 20

    monkeypatch.setattr(simulator, "_hit_points", resolve)
    steps.clear()
    dom, dt = basis_2d.domain, 0.02
    start = sample_initial_configuration(InitialLaw.single(admissible_from_perturbation(
        basis_2d, {})), 12, _rng(83))
    result = run(start, _rng(89), 0.6, dt, RelocationKernel.ground_mode(basis_2d), [], basis_2d)
    want, exits, fires = [], 0, 0
    for pos, prop, twins, hit in steps:
        ref_hit, ref_points = _scalar_detect_hits(dom, pos[0], prop[0], dt, twins[0])
        assert np.array_equal(hit[0], ref_hit)
        out = ~dom.contains_many(prop[0])
        exits, fires = exits + int((hit[0] & out).sum()), fires + int((hit[0] & ~out).sum())
        want += [tuple(y) for y in ref_points[ref_hit]]
    assert exits > 5 and fires > 5
    assert [ev.jump_off for ev in result.events] == want


# -- replica engine ---------------------------------------------------------------

def test_run_replicas_job_invariance():
    def worker(rng, m):
        return float(rng.normal()) + 1000.0 * m

    one = run_replicas(12, 123, worker, jobs=1)
    four = run_replicas(12, 123, worker, jobs=4)
    np.testing.assert_array_equal(one, four)


def test_run_replicas_distinct_streams():
    def worker(rng, _m):
        return float(rng.normal())

    vals = run_replicas(16, 5, worker, jobs=2)
    assert len(set(vals)) == 16


@pytest.mark.parametrize("jobs", [1, 3])
def test_run_replicas_reraises_a_worker_error(jobs):
    """The error of the first failing share (replica 4's, in share 1 at jobs = 3) reaches the
    caller, after every thread has ended."""
    def worker(_rng, m):
        if m in (4, 5):
            raise ValueError(f"replica {m}")
        return m

    alive = threading.active_count()
    with pytest.raises(ValueError, match="replica 4"):
        run_replicas(12, 5, worker, jobs=jobs)
    assert threading.active_count() == alive


def test_mean_and_stderr():
    vals = [1.0, 2.0, 3.0, 4.0]
    mean, se = mean_and_stderr(vals)
    assert mean == pytest.approx(2.5)
    assert se == pytest.approx(np.std(vals, ddof=1) / 2.0)


# -- first exit --------------------------------------------------------------------

def test_first_exit_batch_shapes_and_sides():
    rng = _rng(17)
    starts = np.full((500, 1, 1), 1.0)
    finals, hit_index, taus = first_exit_batch(DOM, starts, 1e-3, rng)
    assert finals.shape == (500, 1, 1)
    assert np.all(taus > 0)
    assert np.all(hit_index == 0)
    ends = finals[:, 0, 0]
    assert np.all((np.abs(ends) < 1e-9) | (np.abs(ends - PI) < 1e-9))
    # from x=1 the left exit carries more mass than the right one
    left = float(np.mean(np.abs(ends) < 1e-9))
    assert left > 0.55


def test_first_exit_batch_multi_particle():
    rng = _rng(23)
    starts = np.tile(np.array([[0.8], [2.0]]), (200, 1, 1))
    finals, hit_index, taus = first_exit_batch(DOM, starts, 1e-3, rng)
    assert finals.shape == (200, 2, 1)
    for b in range(200):
        i = hit_index[b]
        assert DOM.on_boundary(finals[b, i], tol=1e-9)
        other = 1 - i
        assert DOM.contains(finals[b, other])


def test_first_exit_batch_does_not_depend_on_dt():
    starts = np.tile(np.array([[0.3, 0.2], [2.0, 1.3]]), (50, 1, 1))
    a = first_exit_batch(RECT, starts, 1e-3, _rng(31))
    b = first_exit_batch(RECT, starts, 0.5, _rng(31))
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


@pytest.mark.parametrize("bad", [-0.5, 4.0, 0.0, PI, np.nan])
def test_first_exit_batch_rejects_starts_outside_the_open_box(bad):
    with pytest.raises(ValueError, match="outside the open domain"):
        first_exit_batch(DOM, np.array([[[1.0], [bad]]]), 1e-3, _rng(3))


def test_first_exit_batch_at_a_start_on_the_edge_of_a_wall():
    """A start at gap 1e-300 from a wall underflows the exit-time bounds: its row exits at
    once, at that atom's nearest wall, with no numpy warning; its other atoms, one of them
    as near a wall, stay at their starts, and the row without such a start exits later."""
    dom = rectangle(-1.0, 0.0, 0.0, 1.5)  # its upper wall in x at 0, so -1e-300 is in it
    starts = np.array([[[-0.5, 1e-300], [-1e-300, 0.7]],
                       [[-1e-300, 0.7], [-0.6, 0.2]],
                       [[-0.5, 0.7], [-0.2, 1.0]]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        finals, hit_index, taus = first_exit_batch(dom, starts, 1e-3, _rng(3))
    assert taus[:2].tolist() == [0.0, 0.0] and taus[2] > 0.0
    assert hit_index[:2].tolist() == [0, 0]
    np.testing.assert_array_equal(finals[0], [[-0.5, 0.0], [-1e-300, 0.7]])
    np.testing.assert_array_equal(finals[1], [[0.0, 0.7], [-0.6, 0.2]])


def test_first_exit_batch_keeps_its_peak_small(basis_2d, traced_peak_mb):
    # an exit2d benchmark batch of 128 configurations of 64 atoms; its 16,384 coordinates
    # take 0.13 MB an array, and the batch peaked at 3.9 MB when it tiled the bounds
    law = InitialLaw.single(admissible_from_perturbation(basis_2d, {}))
    starts, _masses = sample_curvature_weighted(law, 64, 128, _rng(9))
    assert traced_peak_mb(lambda: first_exit_batch(RECT, starts, 1e-3, _rng(10))) < 3.2


def test_first_exit_batch_checks_the_shape():
    with pytest.raises(ValueError, match="shape"):
        first_exit_batch(RECT, np.full((2, 3, 1), 0.5), 1e-3, _rng(3))


def test_erfc_port_matches_scipy():
    """Within (16 + x^2) ulp of scipy's erfc on [-6, 27], at Cody's range breakpoints and
    next to them; scipy's own exp(-x^2) rounding grows like x^2 ulp, and erfc is 0 from
    26.543 on, where scipy's value is subnormal."""
    from scipy.special import erfc

    edges = np.array([0.46875, 4.0, 26.543])
    edges = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 30.0)])
    x = np.concatenate([np.linspace(-6.0, 27.0, 33001), edges, -edges[edges < 6.0], [0.0]])
    got, want = simulator._erfc(x), erfc(x)
    big = np.abs(x) >= 26.543
    assert np.all(got[big & (x > 0)] == 0.0) and np.all(want[big & (x > 0)] < 1e-307)
    ulp = np.abs(got - want)[~big] / np.spacing(want[~big])
    assert np.all(ulp <= 16.0 + x[~big] ** 2)


def _exit_cdf(t, x, L, K=40):
    """P(T <= t) of the exit time T from x in (0, L), by images with scipy's erfc."""
    from scipy.special import erfc

    k, s = np.arange(K)[:, None], np.sqrt(2.0 * np.atleast_1d(t))[None, :]
    return np.sum((-1.0) ** k * (erfc((k * L + x) / s) + erfc((k * L + L - x) / s)), axis=0)


def _lower_exit_cdf(t, x, L, K=40):
    """P(T <= t, through the lower wall): the lower wall's flux integrated, by images."""
    from scipy.special import erfc

    a = x + 2.0 * L * np.arange(-K, K + 1)[:, None]
    return np.sum(np.sign(a) * erfc(np.abs(a) / np.sqrt(2.0 * np.atleast_1d(t))[None, :]), axis=0)


def _flux(t, x, L, K=40):
    """The flux into the lower and the upper wall at time t from x in (0, L), by images."""
    def lower(x):
        a = x + 2.0 * L * np.arange(-K, K + 1)
        return np.sum(a * np.exp(-a * a / (2.0 * t))) / math.sqrt(2.0 * PI * t ** 3)
    return lower(x), lower(L - x)


def test_exit_time_ks_against_the_survival_sums():
    """tau is the smallest coordinate exit time: from one atom on (0, pi), and from two
    atoms on the rectangle, where P(tau > t) is the product of the four survivals."""
    from scipy.stats import kstest

    _f, _h, taus = first_exit_batch(DOM, np.full((4000, 1, 1), 1.0), 1e-3, _rng(41))
    assert kstest(taus, lambda t: _exit_cdf(t, 1.0, PI)).pvalue > 0.01
    start = np.array([[0.3, 0.7], [2.0, 1.2]])
    _f, _h, taus = first_exit_batch(RECT, np.tile(start, (4000, 1, 1)), 1e-3, _rng(42))

    def cdf(t):
        surv = [1.0 - _exit_cdf(t, x, L) for x, L in zip(start.ravel(), RECT.sides * 2)]
        return 1.0 - np.prod(surv, axis=0)

    assert kstest(taus, cdf).pvalue > 0.01


def test_exit_wall_against_the_flux_split():
    """From x = 1 on (0, pi): the lower wall takes 1 - x/pi of the exits, and the exit
    times through it follow the lower flux, so the wall is split by the flux at each tau;
    the split itself matches the flux by images at fixed t on both sides of L^2/16."""
    from scipy.stats import kstest

    finals, _h, taus = first_exit_batch(DOM, np.full((6000, 1, 1), 1.0), 1e-3, _rng(43))
    lower = finals[:, 0, 0] == 0.0
    assert np.all(lower | (finals[:, 0, 0] == PI))
    p = 1.0 - 1.0 / PI
    assert abs(lower.mean() - p) <= 3.0 * math.sqrt(p * (1.0 - p) / len(lower))
    assert kstest(taus[lower], lambda t: _lower_exit_cdf(t, 1.0, PI) / p).pvalue > 0.01
    for t in (0.05, 0.3, 0.6, 2.0):
        for x in (0.2, 1.0, 1.6, 3.0):
            lo, hi = _flux(t, x, PI)
            share = simulator._lower_wall_share(np.array([t]), np.array([x]), np.array([PI - x]),
                                                np.array([PI]))
            assert share[0] == pytest.approx(lo / (lo + hi), rel=1e-12, abs=1e-300)


def _killed_cdf(t, x, L, K=40):
    """The law of a coordinate at time t from x in (0, L) given that it has not left:
    the killed kernel by images, integrated by Simpson's rule on a fine grid."""
    from scipy.integrate import cumulative_simpson

    y = np.linspace(0.0, L, 20001)
    k = 2.0 * L * np.arange(-K, K + 1)[:, None]
    q = np.sum(np.exp(-(y + k - x) ** 2 / (2.0 * t)) - np.exp(-(-y + k - x) ** 2 / (2.0 * t)),
               axis=0)
    c = cumulative_simpson(q, x=y, initial=0.0)
    return lambda v: np.interp(v, y, c / c[-1])


@pytest.mark.parametrize("x,t,L", [(1.0, 0.01, PI), (0.12, 0.01, PI), (0.02, 0.01, PI),
                                   (1.499, 0.04, 1.5), (1.4, 0.05, 1.5), (0.3, 0.5, 1.5),
                                   (0.05, 3.0, PI)],
                         ids=["gaussian", "gaussian-near", "rayleigh", "rayleigh-upper",
                              "rayleigh-far", "ground-mode", "ground-mode-late"])
def test_killed_draws_ks_against_the_killed_kernel(x, t, L):
    """Each proposal of ``_killed_draws``: the free Gaussian, the Rayleigh law near a wall
    and the ground mode for t >= L^2/16."""
    from scipy.stats import kstest

    N = 4000
    y = simulator._killed_draws(np.full(N, 0.5 + x), np.full(N, 0.5), np.full(N, 0.5 + L),
                                np.full(N, t), _rng(44))
    assert np.all((y > 0.5) & (y < 0.5 + L))
    assert kstest(y - 0.5, _killed_cdf(t, x, L)).pvalue > 0.01


def test_first_exit_2d_corner_flux_split():
    """From (0.1, 0.1) in the rectangle, each face takes the flux into it integrated over
    time against the other axis's survival."""
    from scipy.integrate import quad

    B, start = 20000, (0.1, 0.1)
    finals, hit_index, _taus = first_exit_batch(RECT, np.tile(start, (B, 1, 1)), 1e-3,
                                                _rng(20260805))
    y = finals[:, 0]
    faces = np.stack([y[:, 0] == RECT.lo[0], y[:, 0] == RECT.hi[0],
                      y[:, 1] == RECT.lo[1], y[:, 1] == RECT.hi[1]], axis=1)
    assert np.all(hit_index == 0) and np.all(faces.sum(axis=1) == 1)
    want = []
    for ax in (0, 1):
        L, other = RECT.sides[ax], RECT.sides[1 - ax]
        for wall in (0, 1):
            want.append(quad(lambda t: _flux(t, start[ax], L)[wall]
                             * (1.0 - _exit_cdf(t, start[1 - ax], other)[0]),
                             0.0, 60.0, limit=400, points=[0.01, 0.1, 1.0])[0])
    assert sum(want) == pytest.approx(1.0, abs=1e-6)
    freq = faces.mean(axis=0)
    assert np.all(np.abs(freq - want) <= 3.0 * np.sqrt(np.array(want) * (1 - np.array(want)) / B)
                  + 1e-9)


def test_first_exit_keeps_the_upper_gap():
    """A start 1e-20 below the upper wall of (-1, 0) exits as one 1e-20 above the lower wall
    of (0, 1): the upper gap is taken from the upper wall, not lost as 1 - (1 - 1e-20)."""
    upper = first_exit_batch(interval(-1.0, 0.0), np.full((1, 1, 1), -1e-20), 1e-3, _rng(5))
    lower = first_exit_batch(interval(0.0, 1.0), np.full((1, 1, 1), 1e-20), 1e-3, _rng(5))
    assert upper[2][0] == lower[2][0] > 0.0
    assert upper[0][0, 0, 0] == lower[0][0, 0, 0] == 0.0  # each through its nearest wall


def test_exit_times_have_the_same_bits_alone_or_in_a_batch():
    gen = np.random.default_rng(45)
    L = gen.choice([PI, 1.5], 128)
    x = L * gen.uniform(1e-6, 1.0 - 1e-6, 128)
    y = L - x
    u = np.maximum(gen.random(128), 2.0**-54)
    near = np.minimum(x, y)
    lo, hi = near ** 2 / (2.0 * np.log(2.0 / (1.0 - u))), 2.0 * near ** 2 / (PI * u ** 2)
    batch = simulator._exit_times(x, y, L, u, lo, hi)
    alone = [simulator._exit_times(*(v[i:i + 1] for v in (x, y, L, u, lo, hi)))[0]
             for i in range(128)]
    assert np.array_equal(batch, alone)
    assert np.all((lo <= batch) & (batch <= hi))
    g, _dg = simulator._exit_residual(batch, x, y, L, u)
    assert np.all(np.abs(g) < 1e-12)


# -- estimators ----------------------------------------------------------------------

def test_resolvent_of_constant_is_exact(stationary_law):
    one = CylinderFunction.constant(1.0)
    beta = 2.0
    est, se, tail = resolvent_estimate(
        stationary_law, one, beta, 3, 4, 0.01, _kernel(stationary_law), seed=2
    )
    assert est == pytest.approx(1.0 / beta, abs=1e-12)
    assert se == pytest.approx(0.0, abs=1e-15)
    assert tail >= 0.0


def test_semigroup_estimate_runs(stationary_law):
    g = CylinderFunction.coordinate(1)
    one = CylinderFunction.constant(1.0)
    est, se = semigroup_estimate(
        stationary_law, g, one, 0.05, 8, 32, 0.005, _kernel(stationary_law), seed=4
    )
    assert se > 0
    # crude sanity: stays near the stationary pairing
    assert abs(est - 0.6266570686577502) < 6 * se + 0.05


# -- stacked replicas against one replica at a time -------------------------------

G2 = CylinderFunction.polynomial((1, 2), [(1.0, (1, 0)), (0.5, (1, 1))], name="g2")
STACK_KERNELS = {
    "ground_mode": lambda law: RelocationKernel.ground_mode(law.basis),
    "mixture_reweighted": RelocationKernel.mixture_reweighted,
}


def _one_replica_worker(law, n, n_steps, dt, kernel, jumps):
    """A run_replicas worker that draws a start, advances it alone with
    ``advance_steps(pos[None], [rng])`` and counts its jumps; returns the
    start, the final positions, and G2 at the start and after each step."""
    domain, basis = law.basis.domain, law.basis

    def worker(rng, _m):
        start = sample_initial_configuration(law, n, rng)
        pos = start.copy()
        seen = [cylinder_value(G2, EmpiricalMeasure(domain, pos), basis)]

        def on_step(_k, _t, events):
            jumps.append(len(events[0]))
            seen.append(cylinder_value(G2, EmpiricalMeasure(domain, pos), basis))

        advance_steps(domain, pos[None], n_steps, dt, kernel, [rng], on_step=on_step)
        return start, pos, seen

    return worker


@pytest.mark.parametrize("kind", sorted(STACK_KERNELS))
def test_semigroup_estimate_equals_one_replica_at_a_time(perturbed_law, kind):
    kernel = STACK_KERNELS[kind](perturbed_law)
    basis, psi = perturbed_law.basis, CylinderFunction.coordinate(2)
    n, M, t, dt, seed = 6, 20, 0.3, 0.01, 61
    jumps = []
    worker = _one_replica_worker(perturbed_law, n, 30, dt, kernel, jumps)
    vals = [seen[-1] * cylinder_value(psi, EmpiricalMeasure(basis.domain, start), basis)
            for start, _pos, seen in run_replicas(M, seed, worker)]
    assert sum(jumps) > 5
    got = semigroup_estimate(perturbed_law, G2, psi, t, n, M, dt, kernel, seed)
    assert got == mean_and_stderr(vals)


@pytest.mark.parametrize("kind", sorted(STACK_KERNELS))
def test_resolvent_estimate_equals_one_replica_at_a_time(perturbed_law, kind):
    kernel = STACK_KERNELS[kind](perturbed_law)
    n, M, beta, dt, seed = 5, 4, 6.0, 0.01, 67
    n_steps = int(math.ceil(12.0 / beta / dt))
    edges = np.exp(-beta * dt * np.arange(n_steps + 1))
    weights = np.append((edges[:-1] - edges[1:]) / beta, edges[-1] / beta)
    jumps = []
    worker = _one_replica_worker(perturbed_law, n, n_steps, dt, kernel, jumps)
    results = run_replicas(M, seed, worker)
    assert sum(jumps) > 5
    est, err = mean_and_stderr([math.fsum(np.asarray(seen) * weights) for *_, seen in results])
    sup = max(abs(v) for *_, seen in results for v in seen)
    expected = (est, err, sup * math.exp(-beta * (12.0 / beta)) / beta)
    assert resolvent_estimate(perturbed_law, G2, beta, n, M, dt, kernel, seed) == expected


@pytest.mark.parametrize("kind", sorted(STACK_KERNELS))
def test_convergence_experiment_equals_one_replica_at_a_time(perturbed_law, kind):
    kernel = STACK_KERNELS[kind](perturbed_law)
    basis = perturbed_law.basis
    n_list, M, t, dt, seed, modes = [3, 7], 4, 0.6, 0.02, 71, (1, 2, 3)
    reports = {r.name: r for r in convergence_experiment(
        perturbed_law, t, n_list, M, dt, kernel, seed, modes=modes)}
    jumps = []
    for n, sub in zip(n_list, np.random.SeedSequence(seed).spawn(len(n_list))):
        worker = _one_replica_worker(perturbed_law, n, 30, dt, kernel, jumps)
        vals = np.array([[pair(k, EmpiricalMeasure(basis.domain, pos), basis) for k in modes]
                         for _start, pos, _seen in run_replicas(M, sub, worker)])
        for j, k in enumerate(modes):
            r = reports[f"convergence[mode{k}|n={n}]"]
            assert (r.lhs, r.stderr) == mean_and_stderr(vals[:, j])
    assert sum(jumps) > 5


def test_run_equals_the_reference_step(perturbed_law):
    kernel = _kernel(perturbed_law)
    basis = perturbed_law.basis
    f = [CylinderFunction.coordinate(1), G2]
    start = sample_initial_configuration(perturbed_law, 12, _rng(73))
    result = run(start, _rng(79), 1.2, 0.02, kernel, f, basis=basis, record_stride=7)

    pos, time, rng, events = start.copy(), 0.0, _rng(79), []
    rows, counts = [], []

    def record():
        rows.append([cylinder_value(g, EmpiricalMeasure(DOM, pos), basis) for g in f])
        counts.append(len(events))

    record()
    for k in range(60):
        time, new = _reference_step(DOM, pos, time, 0.02, kernel, rng)
        events += new
        if (k + 1) % 7 == 0 or k == 59:
            record()
    assert len(events) > 5
    assert result.events == events and result.times[-1] == time
    assert np.array_equal(result.values, np.array(rows))
    assert np.array_equal(result.jump_counts, counts)
    assert np.array_equal(result.final, pos)


# -- block observation against per-step observation -------------------------------

def _per_step_estimates(law, n, dt, kernel, jobs, estimators):
    """``_stacked_estimates`` as it was before block observation: each
    resolvent observes its rows with one ``cylinder_value_many`` call at the
    start and after every stacked step."""
    basis = law.basis
    steps = [int(math.ceil(12.0 / x / dt)) if kind == "resolvent" else int(round(x / dt))
             for kind, _g, _psi, x, _M, _seed in estimators]
    order = sorted(range(len(estimators)), key=steps.__getitem__)
    pos, rngs = simulator._replica_starts(law, n, [estimators[e][4:] for e in order], jobs)
    at = np.cumsum([0] + [estimators[e][4] for e in order])
    rows = {e: pos[at[i]:at[i + 1]] for i, e in enumerate(order)}
    seen = {e: [cylinder_value_many(g if kind == "resolvent" else psi, rows[e], basis)]
            for e, (kind, g, psi, *_) in enumerate(estimators)}

    def observe(_k, _time, _jumps):
        for e, (kind, g, *_) in enumerate(estimators):
            if kind == "resolvent" and len(seen[e]) <= steps[e]:  # not yet read
                seen[e].append(cylinder_value_many(g, rows[e], basis))

    out = {}
    for i, (e, taken) in enumerate(zip(order, [0] + sorted(steps))):
        kind, g, _psi, beta, _M, _seed = estimators[e]
        advance_steps(basis.domain, pos[at[i]:], steps[e] - taken, dt, kernel, rngs[at[i]:],
                      on_step=observe)
        if kind == "semigroup":
            out[e] = mean_and_stderr(cylinder_value_many(g, rows[e], basis) * seen[e][0])
            continue
        edges = np.exp(-beta * dt * np.arange(steps[e] + 1))
        weights = np.append((edges[:-1] - edges[1:]) / beta, edges[-1] / beta)
        vals = np.array(seen[e])
        est, err = mean_and_stderr([math.fsum(v * weights) for v in vals.T])
        out[e] = est, err, float(np.abs(vals).max()) * math.exp(-beta * (12.0 / beta)) / beta
    return [out[e] for e in range(len(estimators))]


ONE = CylinderFunction.constant(1.0)
# sorted by step count: the semigroup (13 steps, rows 0-3), then the G2 resolvent
# (240, rows 4-7), then the constant resolvent (400), which reads no mode: only the
# per-step reference steps it, in the last three rows
BLOCK_STACK = [("resolvent", ONE, ONE, 3.0, 3, 83),
               ("semigroup", G2, CylinderFunction.coordinate(2), 0.13, 4, 89),
               ("resolvent", G2, ONE, 5.0, 4, 97)]


def _block_case(dim, perturbed_law, basis_2d):
    if dim == 1:
        return perturbed_law, _kernel(perturbed_law)
    law = InitialLaw(((0.6, admissible_from_perturbation(basis_2d, {})),
                      (0.4, admissible_from_perturbation(basis_2d, {2: 0.05}))))
    return law, RelocationKernel.ground_mode(basis_2d)


@pytest.mark.parametrize("dim", [1, 2])
def test_block_observation_matches_per_step_observation(perturbed_law, basis_2d, dim,
                                                        monkeypatch):
    law, kernel = _block_case(dim, perturbed_law, basis_2d)
    n, dt = 5, 0.01
    want = _per_step_estimates(law, n, dt, kernel, 1, BLOCK_STACK)
    # 70 coordinates are 4 copies of 20 (1-D) or 2 of 40 (2-D), and neither
    # divides the 241 or 401 observations of the resolvents
    for block in (1, 70, simulator._BLOCK):
        monkeypatch.setattr(simulator, "_BLOCK", block)
        assert simulator._stacked_estimates(law, n, dt, kernel, 2, BLOCK_STACK) == want


def test_block_observation_of_a_resolvent_still_checks_the_domain(basis_2d, monkeypatch):
    """A relocation that puts an atom on a wall in the G2 resolvent's rows, once the
    semigroup is read, ends the call as it does when every step is observed."""
    law = InitialLaw.single(admissible_from_perturbation(basis_2d, {}))
    kernel = RelocationKernel.ground_mode(basis_2d)
    real_starts, real_step = simulator._replica_starts, simulator._step_inplace
    victims, steps, placed = [], [], []

    def starts(*args):
        pos, rngs = real_starts(*args)
        victims[:] = rngs[4:8]
        return pos, rngs

    def step(*args):
        steps.append(len(args[1]))
        return real_step(*args)

    def on_wall(kernel_, positions, i, rngs, terms=None):
        targets = sample_relocation(kernel_, positions, i, rngs, terms)
        for r, rng in enumerate(rngs):
            if len(steps) > 13 and not placed and any(rng is v for v in victims):
                placed.append(len(steps))
                targets[r] = basis_2d.domain.lo
        return targets

    monkeypatch.setattr(simulator, "_replica_starts", starts)
    monkeypatch.setattr(simulator, "_step_inplace", step)
    monkeypatch.setattr(simulator, "sample_relocation", on_wall)
    # after the semigroup, the reference steps the G2 rows and the constant's; the stack
    # steps the G2 rows alone
    for estimate, stepping in ((_per_step_estimates, 7), (simulator._stacked_estimates, 4)):
        steps.clear()
        placed.clear()
        with pytest.raises(ValueError, match="outside the open domain"):
            estimate(law, 5, 0.01, kernel, 1, BLOCK_STACK)
        assert placed and steps[placed[0] - 1] == stepping
        # per step, the call ends at that step; by blocks, at a later one
        assert (len(steps) > placed[0]) == (estimate is simulator._stacked_estimates)


def _record_stepping(monkeypatch):
    """Record the sets of every ``_replica_starts`` call and the (B, n) of every step."""
    sets, stacks = [], []
    real_starts, real_step = simulator._replica_starts, simulator._step_inplace

    def starts(law, n, sets_, jobs):
        sets.append(list(sets_))
        return real_starts(law, n, sets_, jobs)

    def step(domain, positions, *args):
        stacks.append(positions.shape[:2])
        return real_step(domain, positions, *args)

    monkeypatch.setattr(simulator, "_replica_starts", starts)
    monkeypatch.setattr(simulator, "_step_inplace", step)
    return sets, stacks


def test_estimators_that_read_no_mode_take_no_path(perturbed_law, monkeypatch):
    """The resolvent of a constant, and a semigroup of a constant against a constant, draw
    no start and take no step, and give the bits of stepping their replicas."""
    kernel, c = _kernel(perturbed_law), CylinderFunction.constant(2.5)
    stack = [("resolvent", ONE, ONE, 3.0, 3, 83), ("semigroup", c, c, 0.13, 4, 89)]
    want = _per_step_estimates(perturbed_law, 5, 0.01, kernel, 1, stack)
    sets, stacks = _record_stepping(monkeypatch)
    assert resolvent_estimate(perturbed_law, ONE, 3.0, 5, 3, 0.01, kernel, 83) == want[0]
    assert simulator._stacked_estimates(perturbed_law, 5, 0.01, kernel, 2, stack) == want
    assert sets == [[], []] and stacks == []
    # the arguments are still checked first
    for args, match in (((0.0, 5, 3, 0.01), "beta"), ((3.0, 5, 1, 0.01), "two replicas"),
                        ((3.0, 5, 3, 0.0), "dt"), ((3.0, 0, 3, 0.01), "one particle")):
        with pytest.raises(ValueError, match=match):
            resolvent_estimate(perturbed_law, ONE, *args, kernel, 83)
    with pytest.raises(ValueError, match="horizon"):
        semigroup_estimate(perturbed_law, c, c, 0.005, 5, 4, 0.01, kernel, 89)


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_stack_steps_only_the_estimators_that_read_a_mode(perturbed_law, monkeypatch, jobs):
    kernel = _kernel(perturbed_law)
    want = _per_step_estimates(perturbed_law, 5, 0.01, kernel, 1, BLOCK_STACK)
    sets, stacks = _record_stepping(monkeypatch)
    assert simulator._stacked_estimates(perturbed_law, 5, 0.01, kernel, jobs, BLOCK_STACK) == want
    assert sets == [[(4, 89), (4, 97)]]
    assert stacks == [(8, 5)] * 13 + [(4, 5)] * 227


def test_operator_limits_steps_two_estimators(stationary_law, monkeypatch):
    """At the shape of the ``operator`` benchmark workload the constant's resolvent takes
    no path: per n, 8 + 8 rows step to t = 2 (100 steps) and 8 on to 12/beta (300 steps),
    3,200 replica-steps, where stepping the constant's 8 rows too made 5,600."""
    g, seeds = CylinderFunction.coordinate(1), np.random.SeedSequence(64).spawn(3)
    _sets, stacks = _record_stepping(monkeypatch)
    operator_limit_checks(stationary_law, [("semigroup", g, ONE, 2.0, 8, seeds[0]),
                                           ("resolvent", ONE, ONE, 2.0, 8, seeds[1]),
                                           ("resolvent", g, ONE, 2.0, 8, seeds[2])],
                          [8, 32], 0.02, RelocationKernel.ground_mode(stationary_law.basis), 2)
    assert stacks == [s for n in (8, 32) for s in [(16, n)] * 100 + [(8, n)] * 200]
    assert [sum(B for B, m in stacks if m == n) for n in (8, 32)] == [3200, 3200]


# -- hashing and artifacts --------------------------------------------------------------

def test_config_hash_canonical():
    h1 = config_hash({"a": 1, "b": [1, 2]})
    h2 = config_hash({"b": [1, 2], "a": 1})
    h3 = config_hash({"a": 2, "b": [1, 2]})
    assert h1 == h2
    assert h1 != h3
    assert len(h1) == 64


def test_artifact_writers(tmp_path, stationary_law):
    kernel = _kernel(stationary_law)
    result = run([[0.1], [3.0]], _rng(9), 0.2, 0.002, kernel, [CylinderFunction.coordinate(1)],
                 basis=stationary_law.basis, record_stride=20)
    meta = {"config_sha256": "deadbeef", "seed": 9}

    tpath = tmp_path / "traj.csv"
    write_trajectory_csv(tpath, result, meta=meta)
    lines = tpath.read_text().splitlines()
    assert lines[0].startswith("#") and "deadbeef" in lines[0] and "seed=9" in lines[0]
    assert lines[1] == "time,pair[1],jump_count"
    assert len(lines) == 2 + len(result.times)

    jpath = tmp_path / "jumps.csv"
    write_jump_log_csv(jpath, result.events, 1, meta=meta)
    jlines = jpath.read_text().splitlines()
    assert jlines[1] == "time,particle,jump_off1,target1,distance"
    assert len(jlines) == 2 + len(result.events)

    mpath = tmp_path / "manifest.json"
    write_manifest(mpath, 9, {"x": 1})
    manifest = json.loads(mpath.read_text())
    assert manifest["seed"] == 9
    assert manifest["config_sha256"] == config_hash({"x": 1})
    # the package version, not the state of any checkout
    assert manifest["build"] == __version__


def test_initial_configuration_seeds_reproducible(stationary_law):
    a = sample_initial_configuration(stationary_law, 6, _rng(31))
    b = sample_initial_configuration(stationary_law, 6, _rng(31))
    np.testing.assert_array_equal(a, b)
