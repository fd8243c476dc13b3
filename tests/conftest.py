import math
import tracemalloc

import numpy as np
import pytest

from flemvi.geometry import interval, rectangle
from flemvi.kernels import InitialLaw, admissible_from_perturbation
from flemvi.spectral import SpectralBasis

PI = math.pi


@pytest.fixture(scope="session")
def basis_1d():
    return SpectralBasis(interval(0.0, PI), truncation_K=16)


@pytest.fixture(scope="session")
def basis_2d():
    return SpectralBasis(rectangle(0.0, PI, 0.0, 1.5), truncation_K=9)


@pytest.fixture(scope="session")
def stationary_law(basis_1d):
    """Single-component mixture: the stationary profile on (0, pi)."""
    return InitialLaw.single(admissible_from_perturbation(basis_1d, {}))


@pytest.fixture(scope="session")
def perturbed_law(basis_1d):
    """Two-component mixture with mode-2 perturbations."""
    return InitialLaw(
        (
            (0.6, admissible_from_perturbation(basis_1d, {})),
            (0.4, admissible_from_perturbation(basis_1d, {2: 0.05})),
        )
    )


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(99)))


@pytest.fixture
def traced_peak_mb():
    """A function that runs fn() and returns the peak of what tracemalloc saw
    allocated meanwhile, in MB (10**6 bytes)."""
    def measure(fn):
        started = not tracemalloc.is_tracing()  # leave a caller's tracing running
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            fn()
            return (tracemalloc.get_traced_memory()[1] - before) / 1e6
        finally:
            if started:
                tracemalloc.stop()

    return measure


def pytest_terminal_summary(terminalreporter):
    """Echo the per-criterion acceptance verdicts after the test summary."""
    import sys

    lines = []
    for name in ("test_acceptance", "tests.test_acceptance"):
        mod = sys.modules.get(name)
        if mod is not None:
            lines = getattr(mod, "ANNOUNCEMENTS", [])
            if lines:
                break
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
