import numpy as np
import pytest

from wavedecay import freekernel
from wavedecay.profiles import bump
from wavedecay.radialop import PotentialSpec, RadialGrid
from wavedecay.specfun import gauss_panels


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


def _panel_Kh_batch(n, profile, h, sigma, t_array):
    """K_h(sigma, t) at any times by composite 4-point Gauss-Legendre
    panels on one lambda grid sized for the latest time (at least 64
    panels, 8 per period 2 pi / (max|t| + sigma)), the phase matrix formed
    64 times at a time.  A rule independent of freekernel's trapezoid
    nodes: the oracle of its evaluators, and the time side of the
    Plancherel checks, which an FFT time side would turn into discrete
    Parseval."""
    t_array = np.asarray(t_array, dtype=float).ravel()
    rate = np.max(np.abs(t_array)) + sigma
    lo, hi = (edge / h for edge in profile.support)
    panels = max(64, int(np.ceil((hi - lo) * rate / (2 * np.pi) * 8)))
    lam, w = gauss_panels(np.linspace(lo, hi, panels + 1), 4)
    g = w * freekernel._kh_integrand(n, profile, h, sigma, lam)
    out = np.empty(t_array.shape, dtype=complex)
    for rows in freekernel._row_blocks(t_array.size):
        out[rows] = np.exp(1j * np.outer(t_array[rows], lam)) @ g
    return freekernel._kh_prefactor(n, sigma) * out


@pytest.fixture(scope="session")
def panel_Kh_batch():
    return _panel_Kh_batch


def _dense_operator(op):
    """The M x M matrix of a DiscreteOperator's tridiagonal bands: the
    dense form the tests' oracles take."""
    return (np.diag(op.diag) + np.diag(op.offdiag, 1)
            + np.diag(op.offdiag, -1))


@pytest.fixture(scope="session")
def dense_operator():
    return _dense_operator
