import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavedecay.profiles import (BumpProfile, bump, mollifier, plateau,
                                step_cutoff, step_cutoff_derivative,
                                sqrt_compose_derivs)


def test_bump_support_and_positivity():
    phi = bump()
    s = np.linspace(0.0, 3.0, 301)
    v = phi(s)
    inside = (s > 1.0) & (s < 2.0)
    assert np.all(v[inside] > 0)
    assert np.all(v[~inside] == 0)
    assert phi.support == (1.0, 2.0)


def test_bump_peak_value():
    # exp(-1/((s-1)(2-s))) peaks at s = 3/2 with value e^{-4}
    phi = bump()
    assert phi(np.array([1.5]))[0] == pytest.approx(np.exp(-4.0))


@given(st.floats(min_value=0.01, max_value=5.0))
@settings(max_examples=50, deadline=None)
def test_plateau_range(s):
    p = plateau(1.0, 4.0)
    v = float(p(np.array([s]))[0])
    assert -1e-12 <= v <= 1.0 + 1e-12
    if 2.0 <= s <= 4.0:
        assert v == pytest.approx(1.0, abs=1e-12)


def test_plateau_is_the_rolled_off_step_cutoff():
    """plateau(1, 8) = chi_1 (1 - chi_8) bit for bit: chi_1 is exactly 1
    wherever chi_8 > 0."""
    s = np.linspace(0.0, 40.0, 8001)[1:]
    want = step_cutoff(1.0)(s) * (1.0 - step_cutoff(8.0)(s))
    assert np.array_equal(plateau(1.0, 8.0)(s), want)


def test_step_cutoff_limits():
    chi = step_cutoff(1.0)
    s = np.array([0.5, 0.999, 2.0, 10.0])
    v = chi(s)
    assert v[0] == 0.0 and v[1] == 0.0
    assert v[2] == pytest.approx(1.0, abs=1e-12)
    assert v[3] == pytest.approx(1.0, abs=1e-12)


def test_step_cutoff_derivative_is_derivative():
    chi = step_cutoff(1.0)
    dchi = step_cutoff_derivative(1.0)
    s = np.linspace(1.05, 1.95, 41)
    eps = 1e-6
    fd = (chi(s + eps) - chi(s - eps)) / (2 * eps)
    assert np.allclose(fd, dchi(s), rtol=1e-5, atol=1e-9)


def test_mollifier_mass_and_support():
    m = mollifier()
    s = np.linspace(0.0, 1.0, 100001)
    mass = np.trapezoid(m(s), s)
    assert mass == pytest.approx(1.0, abs=1e-6)
    assert np.all(m(s[s < 1.0 / 3.0]) == 0)
    assert np.all(m(s[s > 0.5]) == 0)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_bump_derivatives_vs_finite_differences(k):
    phi = bump()
    s = np.linspace(1.1, 1.9, 17)
    eps = 1e-4
    if k == 1:
        fd = (phi(s + eps) - phi(s - eps)) / (2 * eps)
    elif k == 2:
        fd = (phi(s + eps) - 2 * phi(s) + phi(s - eps)) / eps ** 2
    else:
        fd = (phi.deriv(2, s + eps) - phi.deriv(2, s - eps)) / (2 * eps)
    assert np.allclose(fd, phi.deriv(k, s), rtol=1e-5, atol=1e-7)


def test_tilt_multiplies_by_power():
    phi = bump()
    s = np.linspace(1.1, 1.9, 9)
    assert np.allclose(phi.tilt(2)(s), s ** 2 * phi(s))
    assert np.allclose(phi.tilt(-1)(s), phi(s) / s)


def test_tilted_derivative_leibniz():
    phi = bump().tilt(1.5)
    s = np.linspace(1.1, 1.9, 9)
    eps = 1e-5
    fd = (phi(s + eps) - phi(s - eps)) / (2 * eps)
    assert np.allclose(fd, phi.deriv(1, s), rtol=1e-6, atol=1e-9)


def test_companion_plateau_partition():
    phi = bump()
    phi1 = phi.companion_plateau()
    s = np.linspace(1.0, 2.0, 101)[1:-1]
    assert np.allclose(phi1(s), 1.0, atol=1e-12)
    assert np.allclose(phi1(s) * phi(s), phi(s))


def test_sqrt_compose_first_derivative():
    # d/dx phi(sqrt(x)) = phi'(sqrt(x)) / (2 sqrt(x))
    phi = bump()
    x = np.linspace(1.3, 3.7, 13)
    expect = phi.deriv(1, np.sqrt(x)) / (2.0 * np.sqrt(x))
    assert np.allclose(sqrt_compose_derivs(phi, 1, x)[1], expect)


def test_sqrt_compose_higher_vs_fd():
    phi = bump()
    x = np.linspace(1.3, 3.7, 13)
    eps = 1e-4
    fd = (sqrt_compose_derivs(phi, 1, x + eps)[1]
          - sqrt_compose_derivs(phi, 1, x - eps)[1]) / (2 * eps)
    assert np.allclose(fd, sqrt_compose_derivs(phi, 2, x)[2], rtol=1e-5,
                       atol=1e-7)


def test_profile_validation():
    with pytest.raises(ValueError):
        BumpProfile(-1.0, 2.0)
    with pytest.raises(ValueError):
        BumpProfile(2.0, 1.0)
    with pytest.raises(ValueError):
        BumpProfile(1.0, 2.0, kind="sawtooth")
