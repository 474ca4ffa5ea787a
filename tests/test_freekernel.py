import numpy as np
import pytest

from wavedecay import estimates as est
from wavedecay import freekernel
from wavedecay.freekernel import (QuadratureError, eval_Kh, eval_Kh_batch,
                                  eval_Kh_pm, eval_Kh_sigma_batch,
                                  plancherel_lambda_side)
from wavedecay.profiles import bump
from wavedecay.specfun import caljnu

# frozen from an independent adaptive-quadrature evaluation of the
# defining integral (scipy.integrate.quad on real and imaginary parts)
ORACLE = {
    (4, 1.0, 1.0, 3.0): -2.518990268109729e-05 - 2.056754753482151e-04j,
    (4, 0.5, 4.0, 10.0): -4.57649374349588e-06 + 1.8487549180197348e-05j,
    (3, 1.0, 2.0, 5.0): 4.50437665920343e-05 + 1.0576264249250838e-05j,
}


@pytest.fixture(scope="module")
def phi():
    return bump()


@pytest.mark.parametrize("key", sorted(ORACLE))
def test_eval_Kh_against_quadrature_oracle(phi, key):
    n, h, sigma, t = key
    assert eval_Kh(n, phi, h, sigma, t) == pytest.approx(ORACLE[key],
                                                         rel=1e-8)


def test_panel_refinement_stability(phi, monkeypatch):
    # refining on to a tighter stopping rule should change nothing at the
    # tolerance
    a = eval_Kh(4, phi, 1.0, 2.0, 7.0)
    monkeypatch.setattr(freekernel, "_REL_TOL", 1e-12)
    b = eval_Kh(4, phi, 1.0, 2.0, 7.0)
    assert abs(a - b) / abs(b) < 1e-8


@pytest.mark.parametrize("evaluate", [
    lambda phi: eval_Kh(4, phi, 1.0, 2.0, 7.0),
    lambda phi: eval_Kh_pm(4, phi, 1.0, 2.0, 7.0, +1),
], ids=["eval_Kh", "eval_Kh_pm"])
def test_stalled_refinement_raises(phi, evaluate):
    """Integrand weights that drift with the refinement level (the node
    count doubles at each level): no two refinements agree.  The drift
    rides on the profile because the trapezoid rule's one weight is its
    step, and a rescaled step is again an exact rule."""

    class Drifting:
        support = phi.support

        def __call__(self, x):
            return phi(x) * (1.0 + 1e-3 * np.log2(np.size(x)))

    with pytest.raises(QuadratureError, match="stalled"):
        evaluate(Drifting())


def test_pm_split_reassembles(phi):
    sigma, t = 3.0, 5.0
    total = eval_Kh(4, phi, 1.0, sigma, t)
    plus = eval_Kh_pm(4, phi, 1.0, sigma, t, +1)
    minus = eval_Kh_pm(4, phi, 1.0, sigma, t, -1)
    assert plus + minus == pytest.approx(total, rel=1e-7)


def test_batch_routes_agree(phi):
    ts = np.array([2.0, 5.0, 8.0])
    batch = eval_Kh_batch(4, phi, 1.0, 2.0, ts)
    single = [eval_Kh(4, phi, 1.0, 2.0, t) for t in ts]
    assert np.allclose(batch, single, rtol=1e-7)
    sigmas = np.array([1.0, 2.0, 4.0])
    sbatch = eval_Kh_sigma_batch(4, phi, 1.0, sigmas, 5.0)
    singles = [eval_Kh(4, phi, 1.0, s, 5.0) for s in sigmas]
    assert np.allclose(sbatch, singles, rtol=1e-7)


def _one_shot_Kh_sigma_batch(n, profile, h, sigma_array, t):
    """eval_Kh_sigma_batch as one (S x lambda) Bessel matrix on the same
    trapezoid nodes."""
    k, dlam = freekernel._trapezoid_nodes(profile, h,
                                          abs(t) + np.max(sigma_array))
    lam = k * dlam
    base = profile(h * lam) * lam * np.exp(1j * t * lam)
    caj = caljnu((n - 2) / 2.0, np.outer(sigma_array, lam))
    return freekernel._kh_prefactor(n, sigma_array) * dlam * (
        caj @ base.real + 1j * (caj @ base.imag))


_B = freekernel._BLOCK


@pytest.mark.parametrize("size", [1, _B - 1, _B, _B + 1, 2 * _B + 1])
@pytest.mark.parametrize("h", [1.0, 0.125])
def test_blocked_batches_match_one_shot(phi, size, h):
    """Bit for bit: a row of a block is the same BLAS product as that row
    of the one-shot Bessel matrix, the lone leftover row (B + 1, 2B + 1)
    too."""
    sigmas = np.linspace(0.05, 30.0, size)
    assert np.array_equal(eval_Kh_sigma_batch(4, phi, h, sigmas, 7.0),
                          _one_shot_Kh_sigma_batch(4, phi, h, sigmas, 7.0))


@pytest.mark.parametrize("size", [0, 1, 2, _B - 1, _B, _B + 1, 2 * _B,
                                  2 * _B + 1, 2 * _B + 2])
def test_row_blocks_cover_without_a_lone_row(size):
    blocks = freekernel._row_blocks(size)
    assert np.array_equal(np.concatenate(
        [np.arange(size)[b] for b in blocks]), np.arange(size))
    lens = [b.stop - b.start for b in blocks]
    assert max(lens) <= _B + 1 and (size <= 1 or min(lens) > 1)


@pytest.mark.parametrize("h", [1.0, 0.125])
@pytest.mark.parametrize("t", [2.0, 8.0, 16.0, 64.0, 128.0])
def test_sigma_batch_matches_panels_on_cone_windows(phi, panel_Kh_batch,
                                                    h, t):
    """The radius batch against the Gauss-panel oracle on the 65-point
    light-cone windows the (2.2)/(2.7) fits read, to 1e-13 of max |K|."""
    sigmas = np.linspace(0.75 * t, 1.25 * t, 65)
    ref = np.array([panel_Kh_batch(4, phi, h, s, [t])[0] for s in sigmas])
    got = eval_Kh_sigma_batch(4, phi, h, sigmas, t)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("h", [1.0, 0.125])
@pytest.mark.parametrize("sigma", [1.0, 16.0])
@pytest.mark.parametrize("dt, t0", [(0.125, 0.125), (0.125, 0.0625),
                                    (2.0, 2.0), (2.0, 1.0)])
def test_fft_batch_matches_panels(phi, panel_Kh_batch, h, sigma, dt, t0):
    """The FFT time batch against the panel quadrature it replaced, to
    1e-12 of max |K| over times up to 64.  dt = 2 is past Nyquist
    (pi / 2 at h = 1, pi / 16 at h = 1/8): at h = 1/8 the nodes on the
    support outnumber the FFT length, so the weights are folded."""
    ts = np.arange(t0, 64.0 + dt / 2, dt)
    ref = panel_Kh_batch(4, phi, h, sigma, ts)
    got = eval_Kh_batch(4, phi, h, sigma, ts)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("h", [1.0, 0.125])
@pytest.mark.parametrize("sigma", [1.0, 16.0])
def test_fft_batch_short_times_match_long(phi, h, sigma):
    """Times up to 2 size the FFT by its least node count on the support,
    not by the phase rate; they match the same times of the batch up to
    64 (held to the panels above) to 1e-12 of its max |K|, the scale of
    the long batch: at h = 1/8, sigma = 16 the short times lie far
    outside the cone, where |K| is about 1e-6 of it."""
    ts = np.arange(0.125, 64.0625, 0.125)
    long = eval_Kh_batch(4, phi, h, sigma, ts)
    short = eval_Kh_batch(4, phi, h, sigma, ts[:16])
    assert np.max(np.abs(short - long[:16])) <= 1e-12 * np.max(np.abs(long))


@pytest.mark.parametrize("ts", [[2.0, 5.0, 9.0], [3.0, 3.0], [4.0, 2.0],
                                np.geomspace(1.0, 64.0, 9)])
def test_fft_batch_rejects_unequal_steps(phi, ts):
    with pytest.raises(ValueError, match="increasing arithmetic"):
        eval_Kh_batch(4, phi, 1.0, 2.0, ts)


def test_time_batch_working_set_is_the_fft(phi, traced_peak):
    """The (2.8) time integral at h = 1/8 over 512 times peaks under eight
    complex length-N buffers of its FFT (N = 8192: 1 MB), where one
    64-time phase block of the panel batch was 2.8 MB."""
    ts = np.arange(0.125, 64.0625, 0.125)
    peak = traced_peak(lambda: eval_Kh_batch(4, phi, 0.125, 2.0, ts))
    assert peak < 8 * 8192 * 16


def test_sigma_batch_block_is_real(phi, traced_peak):
    """_free_kernel_sup's 561 distances at h = 1/8, t = 64: the real
    Bessel block (64 x 1,355, 0.7 MB) is never cast to complex, and is
    freed before the next is formed, so the call peaks near two blocks
    (the distance-frequency product and the Bessel values), not the
    three of a block cast to complex."""
    k, _ = freekernel._trapezoid_nodes(phi, 0.125, 64.0 + 69.0)
    block_bytes = _B * k.size * 8
    peak = traced_peak(lambda: est._free_kernel_sup(4, phi, 0.125, 64.0))
    assert peak < 2.2 * block_bytes


def test_interior_superpolynomial_decay(phi):
    """Far inside the light cone (sigma = t/4) the kernel dies faster
    than any tested power of t."""
    vals = [abs(eval_Kh(4, phi, 1.0, t / 4.0, t)) for t in (16.0, 32.0,
                                                            64.0)]
    # each doubling loses more than any t^{-5} law would ...
    assert vals[1] / vals[0] < 2.0 ** -5
    assert vals[2] / vals[1] < 2.0 ** -5
    # ... and the rate itself accelerates
    assert vals[2] / vals[1] < vals[1] / vals[0]


def test_cone_decay_rate(phi):
    # on the cone |K| ~ t^{-(n-1)/2}
    v1 = abs(eval_Kh(4, phi, 1.0, 16.0, 16.0))
    v2 = abs(eval_Kh(4, phi, 1.0, 64.0, 64.0))
    assert v2 / v1 == pytest.approx(4.0 ** -1.5, rel=0.05)


@pytest.mark.parametrize("sigma", [1.0, 4.0])
def test_plancherel_identity(phi, panel_Kh_batch, sigma):
    """Truncated time-side integral of |K|^2, by panel quadrature (an FFT
    time side would be discrete Parseval), equals the lambda-side
    Plancherel expression to 1%."""
    lam_side = plancherel_lambda_side(4, phi, 1.0, sigma)
    dt = 0.05
    ts = np.arange(dt / 2, 200.0, dt)
    vals = np.abs(panel_Kh_batch(4, phi, 1.0, sigma, ts)) ** 2
    time_side = 2.0 * float(np.sum(vals) * dt)   # even in t
    assert time_side == pytest.approx(lam_side, rel=0.01)


def test_argument_validation(phi):
    with pytest.raises(ValueError):
        eval_Kh(1, phi, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        eval_Kh(4, phi, 1.5, 1.0, 1.0)
    with pytest.raises(ValueError):
        eval_Kh(4, phi, 1.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        eval_Kh_pm(4, phi, 1.0, 1.0, 1.0, 0)
