import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from wavedecay.specfun import (bessel_jh, caljnu, gauss_panels,
                               simpson_weights, symbol_split)


def test_half_order_closed_form():
    # z^{1/2} J_{1/2}(z) = sqrt(2/pi) sin z
    z = np.linspace(0.3, 12.0, 40)
    expect = np.sqrt(2.0 / np.pi) * np.sin(z)
    assert np.allclose(caljnu(0.5, z), expect)


@settings(max_examples=200, deadline=None)
@given(nu=st.sampled_from((0.0, 0.5, 1.0, 1.5, 2.0)),
       z=st.floats(min_value=1e-3, max_value=400.0))
def test_caljnu_matches_jv(nu, z):
    """caljnu against z^nu jv(nu, z): 1e-14 absolute plus 1e-12 relative,
    plus what moving z by one rounding does to the value,
    eps z |d/dz (z^nu J_nu)| = eps z |z^nu J_{nu-1}(z)|.  The last term
    covers j1 (nu = 1) near a zero beyond z = 5, where it reduces the
    phase in double precision (measured: 0.37 of it at most on a
    6e5-point sweep of [1e-3, 400])."""
    z = np.array([z])
    want = z ** nu * special.jv(nu, z)
    slope = z * np.abs(z ** nu * special.jv(nu - 1.0, z))
    tol = 1e-14 + 1e-12 * np.abs(want) + np.finfo(float).eps * slope
    assert np.abs(caljnu(nu, z) - want)[0] <= tol[0]


def test_hankel_conjugation():
    """H^(2) = conj(H^(1)) on the real axis, which is how the package forms
    it: bessel_jh's conj(H^(1)) and symbol_split's b^- against scipy's
    hankel2, 1e-13 of |H| (nu = 1 takes cephes' j1 and y1 in bessel_jh,
    whose phase reduction moves the value by about eps z |H|)."""
    z = np.geomspace(0.05, 40.0, 2001)
    for nu in (0.5, 1.0, 1.5, 2.0, 2.5):
        h2 = special.hankel2(nu, z)
        j, h = bessel_jh(nu, z)
        assert np.array_equal(j, special.j1(z) if nu == 1.0
                              else special.jv(nu, z))
        assert np.all(np.abs(np.conj(h) - h2) <= 1e-13 * np.abs(h2))
        bm_want = 0.5 * z ** nu * h2 * np.exp(1j * z)
        bp, bm = symbol_split(nu, z)
        assert np.all(np.abs(bm - bm_want) <= 1e-13 * np.abs(bm_want))
        assert np.array_equal(bm, np.conj(bp))


def test_positivity_enforced():
    with pytest.raises(ValueError):
        caljnu(1.0, np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        symbol_split(1.0, np.array([1.0, np.nan]))


@given(st.floats(min_value=0.2, max_value=30.0))
@settings(max_examples=60, deadline=None)
def test_symbol_split_recombines(z):
    """e^{iz} b+ + e^{-iz} b- must reproduce z^nu J_nu(z) exactly."""
    z = np.array([z])
    bp, bm = symbol_split(1.0, z)
    rec = np.exp(1j * z) * bp + np.exp(-1j * z) * bm
    assert rec[0] == pytest.approx(caljnu(1.0, z)[0], rel=1e-10, abs=1e-12)


def test_symbol_split_vectorized():
    z = np.linspace(0.5, 10.0, 21)
    bp, bm = symbol_split(1.0, z)
    rec = np.exp(1j * z) * bp + np.exp(-1j * z) * bm
    assert np.allclose(rec.real, caljnu(1.0, z), atol=1e-12)
    assert np.allclose(rec.imag, 0.0, atol=1e-12)


def test_symbols_decay_like_sqrt():
    # |b+| ~ z^{nu - 1/2} for large z (order nu symbol of order nu - 1/2)
    bp, _ = symbol_split(1.0, np.array([50.0, 200.0]))
    assert abs(bp[1]) / abs(bp[0]) == pytest.approx(4.0 ** 0.5, rel=0.05)


@pytest.mark.parametrize("points", [1, 4, 6])
def test_gauss_panels_exact_to_degree_2k_minus_1(points):
    edges = np.array([-1.3, -0.2, 0.05, 1.7, 4.0])     # uneven panels
    nodes, weights = gauss_panels(edges, points)
    assert nodes.shape == weights.shape == (points * (edges.size - 1),)
    assert np.all(np.diff(nodes) > 0)                   # panel by panel
    for deg in range(2 * points):
        exact = (edges[-1] ** (deg + 1) - edges[0] ** (deg + 1)) / (deg + 1)
        assert np.sum(weights * nodes ** deg) == pytest.approx(
            exact, rel=1e-12, abs=1e-12)


def test_simpson_weights_exact_for_cubics():
    x, step = np.linspace(-0.7, 2.3, 9, retstep=True)
    w = simpson_weights(x.size, step)
    for deg in range(4):
        exact = (x[-1] ** (deg + 1) - x[0] ** (deg + 1)) / (deg + 1)
        assert np.sum(w * x ** deg) == pytest.approx(exact, rel=1e-13,
                                                     abs=1e-13)
    # a quartic is not integrated exactly
    exact = (x[-1] ** 5 - x[0] ** 5) / 5
    assert abs(np.sum(w * x ** 4) - exact) > 1e-6
    with pytest.raises(ValueError):
        simpson_weights(8, step)
