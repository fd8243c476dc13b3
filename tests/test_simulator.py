import json
import math

import numpy as np
import pytest

from flemvi import __version__, simulator
from flemvi.geometry import interval
from flemvi.kernels import (RelocationKernel, mixture_terms, sample_initial_configuration,
                            sample_relocation)
from flemvi.measures import CylinderFunction
from flemvi.simulator import (
    JumpEvent,
    ParticleConfig,
    _detect_hits,
    advance_steps,
    config_hash,
    first_exit_batch,
    mean_and_stderr,
    resolvent_estimate,
    run,
    run_replicas,
    semigroup_estimate,
    step,
    write_jump_log_csv,
    write_manifest,
    write_trajectory_csv,
)

PI = math.pi
DOM = interval(0.0, PI)


def _rng(seed):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def _kernel(law):
    return RelocationKernel.mixture_reweighted(law)


# -- stepping ------------------------------------------------------------------

def test_step_determinism(stationary_law):
    kernel = _kernel(stationary_law)
    a = ParticleConfig(DOM, [[1.0], [2.0]], rng=_rng(3))
    b = ParticleConfig(DOM, [[1.0], [2.0]], rng=_rng(3))
    for _ in range(50):
        a = step(a, 0.01, kernel)
        b = step(b, 0.01, kernel)
    np.testing.assert_array_equal(a.positions, b.positions)
    assert a.time == b.time
    assert len(a.jump_log) == len(b.jump_log)


def test_step_keeps_particles_interior(stationary_law):
    kernel = _kernel(stationary_law)
    cfg = ParticleConfig(DOM, [[0.05], [3.1]], rng=_rng(7))
    for _ in range(200):
        cfg = step(cfg, 0.005, kernel)
        assert np.all(DOM.contains_many(cfg.positions))
    assert len(cfg.jump_log) > 0  # starting near the boundary must cause jumps


def test_jump_events_well_formed(stationary_law):
    kernel = _kernel(stationary_law)
    cfg = ParticleConfig(DOM, [[0.05], [1.0], [3.0]], rng=_rng(11))
    T, dt = 0.5, 0.005
    result = run(cfg, T, dt, kernel, [CylinderFunction.constant(1.0)],
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


def _reference_step(domain, positions, time, dt, kernel, rng):
    """One step that evaluates every relocation's weights from scratch."""
    n, d = positions.shape
    prop = positions + rng.normal(0.0, math.sqrt(dt), size=(n, d))
    u_bridge = rng.random((n, d, 2))
    hit_mask, _theta, hit_points = _detect_hits(domain, positions, prop, dt, u_bridge)
    work = np.where(hit_mask[:, None], positions, prop)
    events = []
    for i in np.flatnonzero(hit_mask):
        target = sample_relocation(kernel, np.delete(work, i, axis=0), rng)
        work[i] = target
        y = hit_points[i]
        events.append(JumpEvent(time + dt, int(i), tuple(float(v) for v in y),
                                tuple(float(v) for v in target),
                                float(np.linalg.norm(target - y))))
    positions[:] = work
    return time + dt, events


def test_per_step_mixture_terms_match_from_scratch(perturbed_law, monkeypatch):
    kernel = _kernel(perturbed_law)
    start = sample_initial_configuration(perturbed_law, 200, _rng(21)).positions
    n_steps, dt = 30, 0.01  # 26 relocations, 6 steps with two or more

    ref_pos, ref_events, time, rng = start.copy(), [], 0.0, _rng(5)
    for _ in range(n_steps):
        time, events = _reference_step(DOM, ref_pos, time, dt, kernel, rng)
        ref_events += events

    # every relocation's terms equal a fresh evaluation on its other particles
    used = []

    def checked(kernel_, others, rng_, terms=None):
        assert np.array_equal(terms, mixture_terms(kernel_, others))
        used.append(terms is not None)
        return sample_relocation(kernel_, others, rng_, terms)

    monkeypatch.setattr(simulator, "sample_relocation", checked)
    pos, events = start.copy(), []
    advance_steps(DOM, pos, n_steps, dt, kernel, _rng(5),
                  on_step=lambda _k, _t, new: events.extend(new))
    assert len(used) > 10 and all(used)
    assert np.array_equal(pos, ref_pos)
    assert events == ref_events


def test_run_recording_grid(stationary_law):
    kernel = _kernel(stationary_law)
    cfg = ParticleConfig(DOM, [[1.0], [2.0]], rng=_rng(1))
    result = run(cfg, 0.1, 0.001, kernel,
                 [CylinderFunction.coordinate(1)], basis=stationary_law.basis,
                 record_stride=10)
    assert len(result.times) == 11
    np.testing.assert_allclose(np.diff(result.times), 0.01, atol=1e-12)
    assert result.values.shape == (11, 1)
    assert np.all(np.diff(result.jump_counts) >= 0)


def test_run_rejects_bad_horizon(stationary_law):
    cfg = ParticleConfig(DOM, [[1.0]], rng=_rng(1))
    with pytest.raises(ValueError):
        run(cfg, 0.0, 0.01, _kernel(stationary_law), [])
    with pytest.raises(ValueError):
        run(cfg, 1.0, -0.01, _kernel(stationary_law), [])


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
    cfg = ParticleConfig(DOM, [[0.1], [3.0]], rng=_rng(9))
    result = run(cfg, 0.2, 0.002, kernel, [CylinderFunction.coordinate(1)],
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
    a = sample_initial_configuration(stationary_law, 6, _rng(31)).positions
    b = sample_initial_configuration(stationary_law, 6, _rng(31)).positions
    np.testing.assert_array_equal(a, b)
