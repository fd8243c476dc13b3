import math

import numpy as np
import pytest

from flemvi import kernels
from flemvi.kernels import (
    InitialLaw,
    KernelKind,
    RelocationKernel,
    admissible_from_perturbation,
    _logsumexp,
    _rejection_sample,
    sample_curvature_weighted,
    sample_ground_mode,
    sample_initial_configuration,
    sample_relocation,
    sample_relocations,
)
from flemvi.spectral import DensityMeasure, _tensor_points, initial_decay_rate

PI = math.pi


# -- admissibility --------------------------------------------------------------

def test_stationary_profile_admissible(basis_1d):
    prof = DensityMeasure.stationary_profile(basis_1d)
    ad = admissible_from_perturbation(basis_1d, {}, c=1.6)
    assert np.array_equal(ad.mu.coeffs, prof.coeffs)
    assert ad.c == 1.6
    assert ad.curvature_mass == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(ValueError):
        admissible_from_perturbation(basis_1d, {}, c=1.5)  # ratio bound needs c >= L1 norm here


def test_auto_comparison_constant(basis_1d):
    ad = admissible_from_perturbation(basis_1d, {})
    assert 1.59 < ad.c < 1.61
    ad2 = admissible_from_perturbation(basis_1d, {2: 0.1})
    assert ad2.c > 7.0  # strongly tilted profile needs a large constant


def test_two_mode_perturbation_needs_larger_comparison_constant(basis_1d):
    # the 5% mode-2 tilt already needs c > 2.6 because of the curvature bound
    with pytest.raises(ValueError):
        admissible_from_perturbation(basis_1d, {2: 0.05}, c=2.0)
    admissible_from_perturbation(basis_1d, {2: 0.05}, c=2.7)


def test_admissible_rejects_nonpositive_density(basis_1d):
    with pytest.raises(ValueError):
        admissible_from_perturbation(basis_1d, {2: 2.0})


def test_auto_constant_above_the_cap_is_rejected(basis_1d):
    # a 12 % mode-2 tilt needs c of about 40
    with pytest.raises(ValueError, match="exceeds the cap 10"):
        admissible_from_perturbation(basis_1d, {2: 0.12})
    assert admissible_from_perturbation(basis_1d, {2: 0.12}, c=40.0).c == 40.0


def test_admissible_2d(basis_2d):
    ad = admissible_from_perturbation(basis_2d, {2: 0.05})
    assert ad.c > 1.0
    assert ad.curvature_mass > 0


@pytest.mark.parametrize("modes", [{}, {2: 0.05, 3: -0.02}])
def test_auto_constant_evaluates_the_grid_once(basis_2d, monkeypatch, modes):
    grid_size = 512 ** 2
    calls = []

    def counted(cls, name):
        original = getattr(cls, name)

        def wrapper(self, *args):
            if name == "_axis_table":
                calls.append((name, args[0], len(args[2])))
            elif len(args[1] if name == "eigenfunction" else args[0]) == grid_size:
                calls.append(name)
            return original(self, *args)

        monkeypatch.setattr(cls, name, wrapper)

    counted(DensityMeasure, "density")
    counted(DensityMeasure, "half_laplacian")
    counted(type(basis_2d), "eigenfunction")
    counted(type(basis_2d), "eigenfunction_matrix")
    counted(type(basis_2d), "_axis_table")
    # one sine table per axis on its 512 coordinates, whether the constant is
    # found or given, and nothing evaluated on the whole grid at once
    tables = [("_axis_table", 0, 512), ("_axis_table", 1, 512)]
    ad = admissible_from_perturbation(basis_2d, modes)
    assert calls == tables
    pinned = admissible_from_perturbation(basis_2d, modes, c=ad.c)
    assert calls == tables * 2
    assert np.array_equal(pinned.mu.coeffs, ad.mu.coeffs)
    assert (pinned.c, pinned.curvature_mass) == (ad.c, ad.curvature_mass)


def _whole_grid_admissibility(basis, modes, c=None):
    """(c, curvature mass), or the violation message, from the whole 512-per-axis
    grid evaluated at once through DensityMeasure (the checks of
    ``admissible_from_perturbation`` before its grid went by chunks)."""
    raw = np.zeros(basis.K)
    raw[0] = 1.0
    for k, a_k in modes.items():
        raw[k - 1] = a_k
    mu = DensityMeasure(basis, raw / math.fsum(raw * basis.unit_integrals))
    grid = _tensor_points([np.linspace(a, b, 514)[1:-1] for a, b in zip(basis.domain.lo, basis.domain.hi)])
    h1, dens, neglap = basis.eigenfunction(1, grid), mu.density(grid), -mu.half_laplacian(grid)
    neg_lam1 = -basis.lambdas[0]
    if c is None:
        c = max(float((dens / h1).max()), float((h1 / dens).max()),
                float((neglap / (neg_lam1 * h1)).max()),
                float(((neg_lam1 * h1) / neglap).max())) * (1.0 + 1e-9)
    bad = ((dens < h1 / c - 1e-12) | (dens > c * h1 + 1e-12)
           | (neglap < neg_lam1 * h1 / c - 1e-12) | (neglap > neg_lam1 * c * h1 + 1e-12))
    idx = np.flatnonzero(bad)
    if len(idx):
        return (f"admissibility bounds violated at {len(idx)} of {len(grid)} grid points "
                f"for c={c:g} (first at {tuple(grid[idx[0]])})")
    return c, -initial_decay_rate(mu)


@pytest.mark.parametrize("where", ["interval", "rectangle"])
@pytest.mark.parametrize("modes", [{}, {2: 0.05}, {2: 0.02, 3: -0.01}])
def test_chunked_grid_equals_the_whole_grid(basis_1d, basis_2d, where, modes):
    basis = basis_1d if where == "interval" else basis_2d
    ad = admissible_from_perturbation(basis, modes)
    assert (ad.c, ad.curvature_mass) == _whole_grid_admissibility(basis, modes)
    # a pinned constant just below the found one fails at part of the grid, 1.01 at most of it
    for c in (1.0 + (ad.c - 1.0) * 0.9, 1.01):
        want = _whole_grid_admissibility(basis, modes, c)
        assert isinstance(want, str) and f"of {512 ** basis.domain.dimension} grid" in want
        with pytest.raises(ValueError) as err:
            admissible_from_perturbation(basis, modes, c=c)
        assert str(err.value) == want


def test_admissibility_grid_is_reduced_chunk_by_chunk(basis_2d, traced_peak_mb):
    # the whole 512 x 512 grid's ground mode, density and curvature take 6.3 MB
    assert traced_peak_mb(lambda: admissible_from_perturbation(basis_2d, {2: 0.05})) < 2.0
    assert traced_peak_mb(lambda: admissible_from_perturbation(basis_2d, {2: 0.05}, c=25.0)) < 2.0


# -- sampling from densities -----------------------------------------------------

def test_density_sampling_matches_cdf(basis_1d, rng):
    ad = admissible_from_perturbation(basis_1d, {2: 0.1})
    pts = ad.sample(rng, 4000)[:, 0]
    assert np.all((pts > 0) & (pts < PI))
    for q in (0.8, 1.5, 2.3):
        emp = float(np.mean(pts < q))
        exact = float(ad.mu.cdf_1d(q))
        se = math.sqrt(exact * (1 - exact) / len(pts))
        assert abs(emp - exact) < 4 * se + 1e-3


def _two_evaluation_sample(rng, size, basis, target, envelope_factor, rounds):
    """``_rejection_sample`` as a callable target drove it: per round the envelope
    from ``basis.eigenfunction(1, .)`` and the target from a second evaluation."""
    out, got = np.empty((size, basis.domain.dimension)), 0
    while got < size:
        want = size - got
        props = sample_ground_mode(basis, rng, kernels._proposal_count(want, basis, envelope_factor))
        rounds.append(len(props))
        accept = rng.random(len(props)) * (envelope_factor * basis.eigenfunction(1, props)) \
            < target(props)
        take = props[accept][:want]
        out[got:got + len(take)] = take
        got += len(take)
    return out


@pytest.mark.parametrize("where", ["interval", "rectangle"])
@pytest.mark.parametrize("c", [None, 25.0])
def test_rejection_rounds_read_one_table(basis_1d, basis_2d, where, c):
    """Both samplers draw the bits of the two-evaluation reference, and end
    their streams where it does."""
    basis = basis_1d if where == "interval" else basis_2d
    ad = admissible_from_perturbation(basis, {2: 0.05}, c=c)
    rounds = []
    sizes = [1] * 12 + [300]
    for call, size in enumerate(sizes):
        for kind, (draw, target, envelope) in enumerate((
                (ad.sample, ad.mu.density, ad.c),
                (ad.sample_neg_half_laplacian, lambda pts: -ad.mu.half_laplacian(pts),
                 -basis.lambdas[0] * ad.c))):
            one, two = (np.random.Generator(np.random.Philox(2 * call + kind)) for _ in range(2))
            want = _two_evaluation_sample(two, size, basis, target, envelope, rounds)
            assert np.array_equal(draw(one, size), want)
            assert one.random() == two.random()
    if c == 25.0:  # some draws take more than one round
        assert len(rounds) > 2 * len(sizes)


def test_rejection_sampler_gives_up_after_its_proposal_guard(basis_1d, rng, monkeypatch):
    # a zero series accepts nothing; size 1 proposes 64 points a round
    monkeypatch.setattr(kernels, "_MAX_PROPOSALS", 1000)
    with pytest.raises(RuntimeError, match="exhausted 1024 proposals for 1 draws"):
        _rejection_sample(rng, 1, basis_1d, np.zeros(basis_1d.K), 1.6)


def test_curvature_sampling_in_domain(basis_1d, rng):
    ad = admissible_from_perturbation(basis_1d, {2: 0.05})
    pts = ad.sample_neg_half_laplacian(rng, 500)
    assert np.all(basis_1d.domain.contains_many(pts))


def test_ground_mode_sampling(basis_1d, rng):
    pts = sample_ground_mode(basis_1d, rng, 3000)[:, 0]
    assert np.all((pts > 0) & (pts < PI))
    # ground-mode profile is symmetric about the center
    assert abs(np.mean(pts < PI / 2) - 0.5) < 0.03


class _ZeroUniforms:
    """A generator whose every uniform is 0.0, the smallest value that
    ``Generator.random`` returns."""

    def random(self, size=None):
        return np.zeros(size)


def test_ground_mode_draws_never_land_on_a_wall(basis_1d, basis_2d):
    for basis in (basis_1d, basis_2d):
        domain = basis.domain
        kernel = RelocationKernel.ground_mode(basis)
        direct = sample_ground_mode(basis, _ZeroUniforms(), 4)
        relocated = sample_relocation(kernel, np.full((1, 3, domain.dimension), 1.0), [1],
                                      [_ZeroUniforms()])
        for pts in (direct, relocated):
            assert np.all(domain.contains_many(pts))
            assert np.all(pts > np.asarray(domain.lo))
        # a nonzero uniform maps as the plain inversion does, bit for bit
        u = np.random.Generator(np.random.Philox(7)).random((500, domain.dimension))
        lo, sides = np.asarray(domain.lo), np.asarray(domain.sides)
        got = sample_ground_mode(basis, np.random.Generator(np.random.Philox(7)), 500)
        assert np.array_equal(got, lo + sides / math.pi * np.arccos(1.0 - 2.0 * u))


# -- mixtures --------------------------------------------------------------------

def test_mixture_weight_normalization(basis_1d):
    law = InitialLaw(
        (
            (2.0, admissible_from_perturbation(basis_1d, {})),
            (6.0, admissible_from_perturbation(basis_1d, {2: 0.05})),
        )
    )
    np.testing.assert_allclose(law.weights, [0.25, 0.75], atol=1e-15)
    assert max(ad.c for _, ad in law.components) >= 2.6


def test_mixture_rejects_bad_weights(basis_1d):
    ad = admissible_from_perturbation(basis_1d, {})
    with pytest.raises(ValueError):
        InitialLaw(((0.0, ad),))
    with pytest.raises(ValueError):
        InitialLaw(())


def test_pick_component_frequencies(perturbed_law, rng):
    picks = np.array([perturbed_law.pick_component(rng) for _ in range(4000)])
    freq = np.mean(picks == 0)
    se = math.sqrt(0.6 * 0.4 / 4000)
    assert abs(freq - 0.6) < 4 * se


def test_initial_configuration_exchangeable(perturbed_law, rng):
    pos = sample_initial_configuration(perturbed_law, 12, rng)
    assert pos.shape == (12, 1)
    assert np.all(perturbed_law.basis.domain.contains_many(pos))


def test_initial_configuration_on_the_boundary_raises(perturbed_law, rng, monkeypatch):
    monkeypatch.setattr(kernels.AdmissibleDensity, "sample",
                        lambda self, rng, size=1: np.zeros((size, 1)))
    with pytest.raises(ValueError, match="outside the open domain"):
        sample_initial_configuration(perturbed_law, 3, rng)


# -- relocation kernels ------------------------------------------------------------

def test_kernel_kinds(basis_1d, stationary_law):
    assert RelocationKernel.uniform_survivor().kind is KernelKind.UNIFORM_SURVIVOR
    assert RelocationKernel.ground_mode(basis_1d).kind is KernelKind.GROUND_MODE
    k = RelocationKernel.mixture_reweighted(stationary_law)
    assert k.kind is KernelKind.MIXTURE_REWEIGHTED
    # kind values are the config's kernel names
    assert [kind.value for kind in KernelKind] == [
        "uniform_survivor", "ground_mode", "mixture_reweighted"]


def test_logsumexp_matches_scipy():
    # the relocation weights must keep scipy's bits; scipy is the test oracle only
    from scipy.special import logsumexp

    gen = np.random.default_rng(20261018)
    differ = []
    for size in range(1, 101):  # 1000 inputs of each size, 100,000 in all
        a = gen.normal(0.0, 1.0, (1000, size)) * np.repeat([1e-3, 1.0, 30.0, 800.0], 250)[:, None]
        a[::3] = np.round(a[::3], 1)  # ties, often at the maximum
        a[1::10, gen.integers(size)] = np.inf
        a[6::10, gen.integers(size)] = -np.inf
        a[2::50] = -np.inf
        ref = logsumexp(a, axis=1)  # row by row, as the 1-D calls below confirm
        for i, row in enumerate(a):
            ours = _logsumexp(row)
            if not (ours == ref[i] or (np.isnan(ours) and np.isnan(ref[i]))):
                differ.append((row, ours, ref[i]))
        for i in range(0, 1000, 97):
            assert np.array_equal(logsumexp(a[i]), ref[i], equal_nan=True)
    assert not differ, differ[:3]


def test_sample_relocation_interior(perturbed_law, basis_1d, rng):
    # atom 4 sits on the boundary; the draw must never read it
    positions = np.insert(rng.uniform(0.3, 2.8, size=(9, 1)), 4, [0.0], axis=0)
    for kernel in (
        RelocationKernel.uniform_survivor(),
        RelocationKernel.ground_mode(basis_1d),
        RelocationKernel.mixture_reweighted(perturbed_law),
    ):
        for _ in range(25):
            y = sample_relocation(kernel, positions[None], [4], [rng])[0]
            assert basis_1d.domain.contains(y)


def _one_point_relocation(kernel, rng):
    """A relocation as ``sample_relocation`` drew it before it went through
    ``sample_relocations``: one ground-mode point, or a one-component mixture's
    choice uniform and then one rejection sample."""
    if kernel.kind is KernelKind.GROUND_MODE:
        return sample_ground_mode(kernel.basis, rng, 1)[0]
    rng.choice(1, p=np.ones(1))
    return kernel.law.components[0][1].sample(rng, 1)[0]


@pytest.mark.parametrize("case, B, one_point", [
    ("rectangle", 40, ()),  # every row accepts in its first round: one block draw
    # P = 64 and a first round accepts none w.p. 0.23: the first row, two
    # consecutive rows (the second starts a block) and the last row continue
    ("rectangle_c25", 40, (0, 8, 17, 28, 34, 38, 39)),
    ("interval_c7e4", 12, (0, 1, 3, 5, 7)),  # P = 2**17, one row per block
    ("interval_ground", 40, ()),
    ("rectangle_ground", 7, ()),
    ("rectangle", 0, ()),
    ("rectangle_ground", 0, ()),
    ("rectangle", 1, ()),
    ("rectangle_c25", 1, (0,)),
])
def test_block_relocations_equal_one_point_draws(basis_1d, basis_2d, monkeypatch,
                                                 case, B, one_point):
    """B block draws equal B one-point draws, and only the rows ``one_point``,
    whose first round accepts nothing, reach the one-point rejection sampler."""
    basis = basis_1d if case.startswith("interval") else basis_2d
    if case.endswith("ground"):
        kernel = RelocationKernel.ground_mode(basis)
    else:
        c = {"rectangle": None, "rectangle_c25": 25.0, "interval_c7e4": 7e4}[case]
        kernel = RelocationKernel.mixture_reweighted(
            InitialLaw.single(admissible_from_perturbation(basis, {}, c=c)))
    one, block = (np.random.Generator(np.random.Philox(np.random.SeedSequence(139)))
                  for _ in range(2))
    rounds = []  # the reference's ground-mode draws per row: one per round or point
    original = kernels.sample_ground_mode

    def counted_rounds(*args):
        rounds[-1] += 1
        return original(*args)

    monkeypatch.setattr(kernels, "sample_ground_mode", counted_rounds)
    want = []
    for _ in range(B):
        rounds.append(0)
        want.append(_one_point_relocation(kernel, one))
    monkeypatch.undo()
    assert tuple(np.flatnonzero(np.array(rounds, dtype=int) > 1)) == one_point
    samples = []

    def counted_sample(self, rng, size):
        samples.append(size)
        return _rejection_sample(rng, size, self.basis, self.mu.coeffs, self.c)

    monkeypatch.setattr(kernels.AdmissibleDensity, "sample", counted_sample)
    got = sample_relocations(kernel, block, B)
    assert got.shape == (B, basis.domain.dimension)
    assert np.array_equal(got, np.array(want).reshape(got.shape))
    assert block.random() == one.random()  # the generator ends where B one-point draws leave it
    assert samples == [1] * len(one_point)


def test_one_point_relocations_share_the_block_sampler(basis_1d, perturbed_law, monkeypatch):
    """A mixture's relocations, stacked rows of configurations or a block of one
    stream, evaluate their first rounds in one ``_first_round`` call; the other
    kernels never do, and a law that reads the other atoms has no block draw."""
    two = RelocationKernel.mixture_reweighted(perturbed_law)
    with pytest.raises(ValueError):
        sample_relocations(two, np.random.default_rng(0), 3)
    rounds, first_round = [], kernels._first_round
    monkeypatch.setattr(kernels, "_first_round",
                        lambda *args: rounds.append(len(args[1])) or first_round(*args))
    positions = np.array([[[0.5], [0.0], [1.5]]] * 2)  # atom 1 on the wall is never read
    single = RelocationKernel.mixture_reweighted(InitialLaw.single(perturbed_law.components[1][1]))
    for kernel, want in ((RelocationKernel.ground_mode(basis_1d), []), (single, [2]), (two, [2]),
                         (RelocationKernel.uniform_survivor(), [])):
        rounds.clear()
        rngs = [np.random.default_rng(s) for s in (0, 1)]
        assert sample_relocation(kernel, positions, [1, 1], rngs).shape == (2, 1)
        assert rounds == want
    rounds.clear()
    assert sample_relocations(single, np.random.default_rng(0), 5).shape == (5, 1)
    assert rounds == [5]


def _choice_case(basis_1d, C, seed):
    """A law of C components with random weights, and for 50 rows of 2 to 41 atoms
    their terms (2, C, 50, n) and a hit index each."""
    gen = np.random.default_rng(seed)
    modes = ({}, {2: 0.05}, {3: 0.05}, {2: -0.05})[:C]
    law = InitialLaw(tuple((gen.uniform(0.1, 1.0), admissible_from_perturbation(basis_1d, m))
                           for m in modes))
    atoms = gen.uniform(0.05, PI - 0.05, size=(50 * int(gen.integers(2, 42)), 1))
    terms = kernels._atom_terms(law, atoms).reshape(2, C, 50, -1)
    return law, terms, gen.integers(terms.shape[-1], size=50)


def _exact_choices(law, terms, i, rngs):
    """``rng.choice`` on the exact weights of ``_mixture_log_weights``, row by row."""
    out = []
    for r, rng in enumerate(rngs):
        log_num = kernels._mixture_log_weights(law, np.delete(terms[:, :, r], i[r], axis=2))
        alpha = np.exp(log_num - _logsumexp(log_num))
        out.append(int(rng.choice(len(alpha), p=alpha / math.fsum(alpha))))
    return out


@pytest.mark.parametrize("C", [1, 2, 3, 4])
def test_certified_choice_equals_the_exact_choice(basis_1d, C):
    """The certified choice draws the index and leaves the stream where
    ``rng.choice`` on the exact weights does."""
    for seed in range(8):
        law, terms, i = _choice_case(basis_1d, C, 100 * C + seed)
        ours = [np.random.Generator(np.random.Philox(seed * 50 + r)) for r in range(50)]
        exact = [np.random.Generator(np.random.Philox(seed * 50 + r)) for r in range(50)]
        assert kernels._choose(law, terms, i, ours).tolist() == _exact_choices(law, terms, i, exact)
        assert [g.random() for g in ours] == [g.random() for g in exact]


def test_an_uncertain_choice_takes_the_exact_path(basis_1d, monkeypatch):
    """A uniform within half the bound of a cdf entry, or a non-finite term, sends
    the row to the exact weights, which then draw what ``rng.choice`` draws."""
    law = InitialLaw(((0.6, admissible_from_perturbation(basis_1d, {})),
                      (0.4, admissible_from_perturbation(basis_1d, {2: 0.05}))))
    u = np.random.Generator(np.random.Philox(3)).random()
    # five atoms, the hit's (index 2) left out; in row 0 the first cdf entry
    # 1 / (1 + exp(x1 - x0)) sits at u, and row 1 has a NaN among the others
    terms = np.full((2, 2, 2, 5), 1.0)
    terms[0, 0, 0] = 0.0
    terms[0, 1, 0] = (math.log((1 - u) / u) - math.log(0.4 / 0.6)) / 4
    terms[:, :, :, 2] = -3.0
    terms[1, 0, 1, 3] = np.nan
    i = np.array([2, 2])
    cdf, bound = kernels._choice_cdf(law, terms, i)
    assert abs(cdf[0, 0] - u) < bound[0] / 2 < 1e-12 and np.isnan(cdf[:, 1]).all()
    exact_calls, weights = [], kernels._mixture_log_weights
    monkeypatch.setattr(kernels, "_mixture_log_weights",
                        lambda *args: exact_calls.append(1) or weights(*args))
    ours, exact = ([np.random.Generator(np.random.Philox(3))] for _ in range(2))
    assert kernels._choose(law, terms[:, :, :1], i[:1], ours).tolist() == \
        _exact_choices(law, terms[:, :, :1], i[:1], exact)
    assert ours[0].random() == exact[0].random()
    assert len(exact_calls) == 2  # ours and the reference's
    with pytest.raises(ValueError, match="contain NaN"):  # as rng.choice on the exact weights
        kernels._choose(law, terms[:, :, 1:], i[1:], [np.random.Generator(np.random.Philox(3))])
    assert len(exact_calls) == 3


def test_an_unknown_kernel_kind_fails_at_construction(basis_1d):
    with pytest.raises(ValueError, match="'survivor' is not a valid KernelKind"):
        RelocationKernel("survivor", basis_1d)
    assert RelocationKernel("ground_mode", basis_1d).kind is KernelKind.GROUND_MODE


def test_a_kernel_without_its_basis_or_law_fails_at_construction(basis_1d, stationary_law, rng):
    with pytest.raises(ValueError, match="ground_mode relocation needs a basis"):
        RelocationKernel("ground_mode")
    with pytest.raises(ValueError, match="mixture_reweighted relocation needs a law"):
        RelocationKernel("mixture_reweighted")
    with pytest.raises(ValueError, match="mixture_reweighted relocation needs a law"):
        RelocationKernel("mixture_reweighted", basis_1d)
    assert RelocationKernel("uniform_survivor").law is None
    law_only = RelocationKernel("mixture_reweighted", law=stationary_law)  # draws from the law alone
    assert sample_relocation(law_only, np.array([[[1.0], [2.0]]]), [0], [rng]).shape == (1, 1)


def test_mixture_relocation_follows_the_reweighted_law(basis_1d, rng):
    """The reappearance point of an interior atom is drawn from the reweighted
    mixture eta, whose weights are proportional to w_m times the others' summed
    curvature ratios and likelihood, not from the mixture with the law's own
    component weights."""
    from scipy import stats

    law = InitialLaw(((1.0, admissible_from_perturbation(basis_1d, {2: 0.1})),
                      (1.0, admissible_from_perturbation(basis_1d, {2: -0.1}))))
    kernel = RelocationKernel.mixture_reweighted(law)
    others = rng.uniform(0.2, 1.2, size=(30, 1))  # crowded on one side
    positions = np.vstack([[[1.5]], others])
    terms = kernels.mixture_terms(kernel, positions[None])
    draws = [sample_relocation(kernel, positions[None], [0], [rng], terms)[0, 0] for _ in range(4000)]
    logs, ratios = kernels._atom_terms(law, others)
    alpha = law.weights * ratios.sum(axis=1) * np.exp(logs.sum(axis=1))
    eta = DensityMeasure(basis_1d, sum(a * ad.mu.coeffs for a, (_, ad) in
                                       zip(alpha / alpha.sum(), law.components)))
    plain = DensityMeasure(basis_1d, sum(w * ad.mu.coeffs for w, ad in law.components))
    assert stats.kstest(draws, eta.cdf_1d).pvalue > 1e-4
    assert stats.kstest(draws, plain.cdf_1d).pvalue < 1e-6


def test_uniform_survivor_copies_a_survivor(rng):
    kernel = RelocationKernel.uniform_survivor()
    positions = np.array([[0.5], [0.0], [1.5], [2.5]])
    for _ in range(20):
        y = sample_relocation(kernel, positions[None], [1], [rng])[0]
        assert any(np.allclose(y, o) for o in positions[[0, 2, 3]])


# -- curvature-weighted configuration law -------------------------------------------

def test_curvature_weighted_mass(stationary_law, rng):
    n = 6
    starts, masses = sample_curvature_weighted(stationary_law, n, 400, rng)
    assert starts.shape == (400, n, 1)
    # for the stationary profile the total weight is n * curvature mass = n/2
    mean = float(np.mean(masses))
    assert mean == pytest.approx(n * 0.5, abs=1e-12)


def test_curvature_weighted_positions_interior(perturbed_law, rng):
    starts, masses = sample_curvature_weighted(perturbed_law, 5, 20, rng)
    assert np.all(perturbed_law.basis.domain.contains_many(starts))
    assert np.all(masses > 0)


def _twin(rng):
    """A generator that draws the same numbers as ``rng`` from here on."""
    twin = np.random.Generator(np.random.Philox())
    twin.bit_generator.state = rng.bit_generator.state
    return twin


@pytest.mark.parametrize("n, B", [(5, 300), (1, 40), (4, 1)])
@pytest.mark.parametrize("where", ["interval", "rectangle"])
def test_curvature_weighted_draw_layout(perturbed_law, basis_2d, rng, where, n, B):
    law = perturbed_law if where == "interval" else InitialLaw(
        ((0.7, admissible_from_perturbation(basis_2d, {})),
         (0.3, admissible_from_perturbation(basis_2d, {2: 0.05}))))
    d = law.basis.domain.dimension
    ref = _twin(rng)
    starts, masses = sample_curvature_weighted(law, n, B, rng)
    # the documented layout, one configuration at a time from the same array calls
    wK = np.array([w * ad.curvature_mass for w, ad in law.components])
    comp = ref.choice(len(wK), size=B, p=wK / wK.sum())
    index = ref.integers(n, size=B)
    want = np.empty((B, n, d))
    for m, (_, ad) in enumerate(law.components):
        rows = np.flatnonzero(comp == m)
        special = ad.sample_neg_half_laplacian(ref, len(rows))
        rest = ad.sample(ref, len(rows) * (n - 1)) if n > 1 else np.empty((0, d))
        rest = rest.reshape(len(rows), n - 1, d)
        for j, r in enumerate(rows):
            want[r] = np.insert(rest[j], index[r], special[j], axis=0)
    assert starts.shape == want.shape and starts.tobytes() == want.tobytes()
    assert masses.tolist() == [n * math.fsum(wK)] * B
    assert np.array_equal(rng.random(4), ref.random(4))  # nothing else was drawn


def test_curvature_weighted_law_matches_its_closed_forms(perturbed_law, monkeypatch):
    from scipy import stats

    law, n, B = perturbed_law, 3, 6000
    calls = []
    original = kernels.AdmissibleDensity.sample_neg_half_laplacian

    def spy(self, rng, size=1):
        out = original(self, rng, size)
        calls.append((self, out))
        return out

    monkeypatch.setattr(kernels.AdmissibleDensity, "sample_neg_half_laplacian", spy)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(20261018)))
    starts, _masses = sample_curvature_weighted(law, n, B, rng)
    x = starts[:, :, 0]
    # each component's special-atom call draws one atom per row of that component
    wK = np.array([w * ad.curvature_mass for w, ad in law.components])
    p = wK / math.fsum(wK)
    assert [who for who, _ in calls] == [ad for _, ad in law.components]
    for (_, out), p_m in zip(calls, p):
        assert abs(len(out) - B * p_m) < 4 * math.sqrt(B * p_m * (1 - p_m))
    # each row holds exactly one of the special atoms, at a uniform index
    is_special = np.isin(x, np.concatenate([out[:, 0] for _, out in calls]))
    assert np.all(is_special.sum(axis=1) == 1)
    counts = np.bincount(np.argmax(is_special, axis=1), minlength=n)
    assert np.all(np.abs(counts - B / n) < 4 * math.sqrt(B * (1 / n) * (1 - 1 / n)))
    # one special and one other atom per row against the mixtures' closed-form CDFs
    basis = law.basis
    neg_lap = DensityMeasure(basis, sum(
        w * -ad.mu.coeffs * basis.lambdas for w, ad in law.components) / math.fsum(wK))
    rest_law = DensityMeasure(basis, sum(
        p_m * ad.mu.coeffs for p_m, (_, ad) in zip(p, law.components)))
    first_other = np.where(is_special[:, 0], x[:, 1], x[:, 0])
    for pts, mu in ((x[is_special], neg_lap), (first_other, rest_law)):
        assert mu.cdf_1d(0.0) == pytest.approx(0.0, abs=1e-12)
        assert mu.cdf_1d(PI) == pytest.approx(1.0, abs=1e-12)
        assert stats.kstest(pts, mu.cdf_1d).pvalue > 1e-4


def test_curvature_weighted_start_on_the_boundary_raises(perturbed_law, rng, monkeypatch):
    monkeypatch.setattr(kernels.AdmissibleDensity, "sample",
                        lambda self, rng, size=1: np.zeros((size, 1)))
    with pytest.raises(ValueError, match="outside the open domain"):
        sample_curvature_weighted(perturbed_law, 3, 4, rng)
