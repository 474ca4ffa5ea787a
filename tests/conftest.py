import numpy as np
import pytest

from wavedecay.profiles import bump
from wavedecay.radialop import PotentialSpec, RadialGrid


@pytest.fixture(scope="session")
def small_grid():
    # R = 16, dr = 0.1: resolves frequencies up to sigma = 2 at h = 1/2
    return RadialGrid(16.0, 159)


@pytest.fixture(scope="session")
def potential():
    return PotentialSpec(2.0, 3.0)


@pytest.fixture(scope="session")
def profile():
    return bump()


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def traced_peak():
    """Callable: the tracemalloc peak, in bytes, of the allocations made
    while fn() runs."""
    import tracemalloc

    def peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return peak
