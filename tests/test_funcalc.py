import numpy as np
import pytest

from wavedecay.funcalc import (_resolvent_sum, almost_analytic,
                               hs_multiplier, phi_of_hsqrt, verify_lemma23)
from wavedecay.propagator import wave_multiplier
from wavedecay.radialop import build_G, build_G0

N = 4


@pytest.fixture(scope="module")
def op(small_grid, potential):
    return build_G(small_grid, N, potential)


def test_extension_restricts_to_psi(profile):
    aa = almost_analytic(profile, 4)
    x = np.linspace(0.5, 5.0, 40)
    assert np.allclose(aa.tilde(x + 0j).real, aa.psi(x))
    assert np.allclose(aa.tilde(x + 0j).imag, 0.0)
    # psi(x) = profile(sqrt x)
    assert np.allclose(aa.psi(x), profile(np.sqrt(x)))
    assert aa.support == (1.0, 4.0)


def test_extension_vanishes_far_from_axis(profile):
    aa = almost_analytic(profile, 4)
    z = np.linspace(1.0, 4.0, 9) + 1.5j
    assert np.all(aa.tilde(z) == 0.0)
    assert np.all(aa.dbar(z) == 0.0)


def test_dbar_order_near_axis(profile):
    """|dbar psi~| = O(|Im z|^order) approaching the spectrum."""
    order = 5
    aa = almost_analytic(profile, order)
    x = np.linspace(1.1, 3.9, 25)
    s1 = np.max(np.abs(aa.dbar(x + 1e-2j)))
    s2 = np.max(np.abs(aa.dbar(x + 2e-2j)))
    assert s2 / s1 == pytest.approx(2.0 ** order, rel=0.1)


def test_order_validation(profile):
    with pytest.raises(ValueError):
        almost_analytic(profile, -1)


def test_quadrature_route_matches_eigen(op, profile):
    """Complex-plane resolvent quadrature vs the eigendecomposition."""
    got = hs_multiplier(op, profile, 1.0, order=8, tol=1e-7)
    want = phi_of_hsqrt(op, profile, 1.0)
    assert np.linalg.norm(got - want, 2) <= 1e-6


def test_quadrature_route_h_half(op, profile):
    got = hs_multiplier(op, profile, 0.5, order=8, tol=1e-7)
    want = phi_of_hsqrt(op, profile, 0.5)
    assert np.linalg.norm(got - want, 2) <= 1e-6


@pytest.mark.parametrize("block", [1, 7, 40])
def test_resolvent_sum_matches_dense_inverse(op, rng, block):
    """The semiseparable sum against sum_k c_k (T - z_k)^{-1} built from
    dense inverses, with blocks of one node, a ragged block and all nodes."""
    m = op.diag.size
    zs = (rng.uniform(0.0, 8.0, 40) + 1j * rng.uniform(1e-3, 1.0, 40))
    cs = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    t = (np.diag(op.diag) + np.diag(op.offdiag, 1)
         + np.diag(op.offdiag, -1))
    want = sum(c * np.linalg.inv(t - z * np.eye(m)) for z, c in zip(zs, cs))
    got = _resolvent_sum(op.diag, op.offdiag, zs, cs, block=block)
    assert got.dtype == np.float64
    assert np.max(np.abs(got - want.real)) <= 1e-12 * np.max(np.abs(want))


def test_resolvent_sum_raises_outside_float_range():
    """A diagonal that dwarfs the off-diagonal drives the transfer products
    (-e / l)^j below the normal floats: an error naming the node, not a
    silent NaN."""
    m = 200
    with pytest.raises(FloatingPointError,
                       match=r"z = 1\+0\.1j .* max \|log P\| = 2749\."):
        _resolvent_sum(np.full(m, 1e6), np.ones(m - 1),
                       np.array([5e5 + 1j, 1.0 + 0.1j]),
                       np.array([1.0, 1.0 + 0j]))


def test_phi_of_hsqrt_is_t0_propagator(op, profile):
    mat = wave_multiplier(op, profile, 1.0, 0.0).matrix
    got = phi_of_hsqrt(op, profile, 1.0)
    assert got.dtype == np.float64
    assert np.allclose(got, mat.real, atol=1e-12)


def test_cutoff_family_report(small_grid, potential, profile):
    op0 = build_G0(small_grid, N)
    op = build_G(small_grid, N, potential)
    rep = verify_lemma23(small_grid, N, op0, op, profile,
                         (1.0, 0.5, 0.25, 0.125))
    # weighted cutoffs bounded in h
    assert rep["2.26"]["passed"] and rep["2.27"]["passed"]
    for p in ("1", "2", "inf"):
        assert rep["2.29"][p]["passed"]
        assert rep["2.30"][p]["passed"]
    # the difference gains powers of h; the h = 1 end of the window is
    # saturated (relative perturbation 2 h^2 is order one there), so the
    # windowed slope sits below the asymptotic rate and the report must
    # say so honestly
    assert rep["2.28"]["fitted_exponent"] > 1.3
    assert rep["2.28"]["passed"] == (
        abs(rep["2.28"]["fitted_exponent"] - 2.0) <= 0.3)
    assert rep["2.31"]["2"]["fitted_exponent"] > 0.7
    assert rep["2.31"]["2"]["passed"] == (
        abs(rep["2.31"]["2"]["fitted_exponent"] - 2.0) <= 0.3)
    # L2 -> Linf loses h^{-n/2}
    assert rep["2.32"]["passed"]
    assert rep["2.32"]["fitted_exponent"] == pytest.approx(-2.0, abs=0.3)
    assert rep["2.33"]["passed"]
    assert "_caveat" in rep
