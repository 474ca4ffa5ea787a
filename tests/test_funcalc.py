from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavedecay.funcalc import (_chi_c, _chi_c_prime, _hs_mesh,
                               _resolvent_sum, almost_analytic,
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


def _dbar_per_node(aa, z):
    """dbar from its definition with every factor evaluated at every node,
    nothing shared between nodes."""
    x, y = z.real, z.imag
    taylor = np.zeros(z.shape, dtype=complex)
    for k in range(aa.order + 1):
        taylor += aa.psi_deriv(k, x) * (1j * y) ** k / factorial(k)
    lead = (_chi_c(y) * aa.psi_deriv(aa.order + 1, x)
            * (1j * y) ** aa.order / factorial(aa.order))
    return 0.5 * lead + 0.5j * _chi_c_prime(y) * taylor


def test_dbar_gathers_exactly(profile):
    """dbar evaluates each factor once per distinct Re z and Im z; on the
    quadrature mesh (far fewer distinct x and y than nodes) and on a 2-D
    array of z with repeated x that is bit for bit the evaluation at every
    node.  Most of the 2-D y lie in the cutoff band 1/2 < Im z < 1, where
    chi_c is a Gauss sum (``profiles._bump_cdf``); that sum is per row, so
    its last bit does not depend on how many values share the call."""
    aa = almost_analytic(profile, 8)
    zs, _ = _hs_mesh(aa, 1e-7)
    assert np.unique(zs.real).size < zs.size / 10
    assert np.array_equal(aa.dbar(zs), _dbar_per_node(aa, zs))
    for ys in ([0.01, 0.1, 0.3, 0.45, 0.55, 0.7, 0.85, 0.95],
               [0.6, 0.75, 0.9], [0.52, 0.65, 0.8, 0.99]):
        grid = (np.linspace(0.9, 4.2, 7)[None, :]
                + 1j * np.array(ys)[:, None])
        z2 = np.concatenate([grid, grid[:, ::-1]], axis=1)
        got = aa.dbar(z2)
        assert got.shape == z2.shape
        assert np.array_equal(got, _dbar_per_node(aa, z2))
        assert np.array_equal(got, np.vectorize(aa.dbar)(z2))
        assert np.array_equal(aa.tilde(z2), np.vectorize(aa.tilde)(z2))


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


@settings(max_examples=60, deadline=None)
@given(m=st.integers(2, 80), nodes=st.integers(1, 12),
       block=st.integers(1, 12), e=st.floats(0.1, 4.0),
       negative_e=st.booleans(), top=st.floats(0.0, 1e3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_resolvent_sum_matches_dense_inverse_property(m, nodes, block, e,
                                                      negative_e, top, seed):
    """The boundary-solution sum against sums of dense inverses to 1e-12
    of the largest entry: random sizes and blocks, either sign of the
    off-diagonal, a diagonal with a steep top like the centrifugal term
    (top / j^2) over a random potential, Re z across the spectrum and
    Im z in [1e-3, 1]."""
    rng = np.random.default_rng(seed)
    diag = (2.0 * e + top / np.arange(1, m + 1) ** 2
            + rng.uniform(0.0, 1.0, m))
    off = np.full(m - 1, -e if negative_e else e)
    zs = (rng.uniform(0.0, 4.0 * e + 1.0, nodes)
          + 1j * 10.0 ** rng.uniform(-3.0, 0.0, nodes))
    cs = rng.standard_normal(nodes) + 1j * rng.standard_normal(nodes)
    t = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    want = sum(c * np.linalg.inv(t - z * np.eye(m)) for z, c in zip(zs, cs))
    got = _resolvent_sum(diag, off, zs, cs, block=block)
    assert np.max(np.abs(got - want.real)) <= 1e-12 * np.max(np.abs(want))


def test_resolvent_sum_raises_on_huge_bottom_rows():
    """A diagonal that dwarfs the off-diagonal in the bottom rows only: the
    top boundary solution leaves the floats there, and the bottom one
    starts there; an error naming the node with the larger |log P|."""
    m = 200
    diag = np.ones(m)
    diag[-60:] = 1e6
    with pytest.raises(FloatingPointError,
                       match=r"z = 3\+1j .* max \|log P\| = 930\."):
        _resolvent_sum(diag, np.ones(m - 1), np.array([1.0 + 0.1j, 3.0 + 1j]),
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
