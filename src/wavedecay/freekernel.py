"""Frequency-localized free wave kernel by oscillatory quadrature.

The kernel of the localized free wave group, in n >= 2 dimensions with
nu = (n-2)/2, is

    K_h(sigma, t) = (2 pi)^{-(nu+1)} sigma^{-2 nu}
                    int_0^inf e^{i t lam} phi(h lam) (sigma lam)^nu
                    J_nu(sigma lam) lam dlam,

with the plus/minus decomposition obtained from the exact symbol split of
z^nu J_nu(z).  Every evaluator takes one rule (_trapezoid_nodes): the
trapezoid rule on the equispaced nodes lam_k = k dlam inside the
profile's support, with dlam at most an eighth of the fastest period
2 pi / rate (rate = |t| + sigma for K_h) and at least _MIN_NODES nodes on
the support.  It converges faster than any power because the integrand
vanishes with all its derivatives at the ends of the support (Trefethen &
Weideman, "The exponentially convergent trapezoidal rule", SIAM Review
56, 2014).  A batch of equally spaced times is one FFT of that rule.
"""

from __future__ import annotations

import csv

import numpy as np

from .specfun import caljnu, symbol_split

__all__ = [
    "QuadratureError",
    "eval_Kh",
    "eval_Kh_pm",
    "eval_Kh_batch",
    "eval_Kh_sigma_batch",
    "plancherel_lambda_side",
    "write_kernel_scan",
]


class QuadratureError(RuntimeError):
    """Raised when step refinement stalls above the requested tolerance."""


_MAX_REFINE = 6
# relative agreement of two successive refinements that ends eval_Kh's
# step halving
_REL_TOL = 1e-8
# radii of one (radii x lambda) Bessel block in eval_Kh_sigma_batch, so
# its working set is one block whatever the batch size
_BLOCK = 64
# least trapezoid nodes on the profile's support: with fewer, the bump's
# transform aliased from |t| ~ 2 pi / dlam shows above round-off at h = 1
_MIN_NODES = 128


def _trapezoid_nodes(profile, h, rate, refine=0, dt=None):
    """(k, dlam): the trapezoid rule on lam_k = k dlam, each node of weight
    dlam, k running over every integer with lam_k strictly inside the
    profile's support (lo, hi) / h.  dlam is the smaller of an eighth of
    the fastest period 2 pi / rate and (hi - lo) / _MIN_NODES, halved
    `refine` times; given a time step dt it is rounded down to
    2 pi / (N dt), N a power of two (eval_Kh_batch's FFT length)."""
    lo, hi = profile.support
    lo, hi = lo / h, hi / h
    span = max(8 * rate, 2 * np.pi * _MIN_NODES / (hi - lo)) * 2 ** refine
    if dt is not None:
        span = 2 ** int(np.ceil(np.log2(span / dt))) * dt
    dlam = 2 * np.pi / span
    return np.arange(int(lo / dlam) + 1, int(np.ceil(hi / dlam))), dlam


def _kh_integrand(n, profile, h, sigma, lam):
    # lam lies inside the profile support, so sigma * lam > 0
    return profile(h * lam) * caljnu((n - 2) / 2.0, sigma * lam) * lam


def _kh_prefactor(n, sigma):
    nu = (n - 2) / 2.0
    return sigma ** (-2 * nu) / (2 * np.pi) ** (nu + 1)


def _check_dim(n):
    if n < 2:
        raise ValueError("dimension must be >= 2")


def _quad_once(n, profile, h, sigma, t, refine=0):
    k, dlam = _trapezoid_nodes(profile, h, abs(t) + sigma, refine)
    lam = k * dlam
    vals = np.exp(1j * t * lam) * _kh_integrand(n, profile, h, sigma, lam)
    return _kh_prefactor(n, sigma) * dlam * np.sum(vals)


def _check_args(h, sigma):
    """sigma a radius or an array of radii."""
    if not np.all(np.isfinite(sigma) & (sigma > 0)):
        raise ValueError("sigma must be finite and > 0")
    if not (0 < h <= 1):
        raise ValueError("h must lie in (0, 1]")


def _refine(piece):
    """piece(refine) for refine = 0, 1, ... until two in a row agree to
    _REL_TOL (or to 1e-16 absolute); QuadratureError after _MAX_REFINE
    refinements."""
    prev = piece(0)
    for refine in range(1, _MAX_REFINE + 1):
        cur = piece(refine)
        scale = max(abs(cur), 1e-300)
        if abs(cur - prev) / scale <= _REL_TOL or abs(cur - prev) <= 1e-16:
            return cur
        prev = cur
    raise QuadratureError(
        f"refinement stalled at rel err {abs(cur - prev) / scale:.2e}")


def eval_Kh(n, profile, h, sigma, t):
    """K_h(sigma, t), halving the step until two refinements agree."""
    _check_dim(n)
    _check_args(h, sigma)
    return _refine(lambda refine: _quad_once(n, profile, h, sigma, t, refine))


def eval_Kh_pm(n, profile, h, sigma, t, sign):
    """The piece K_h^{+/-} of the light-cone decomposition (phase t +/- sigma).

    Exact for all sigma * lambda > 0 since the symbol split is exact; the
    undecomposed eval_Kh stays authoritative for sigma * lambda <= 1 where
    the symbols blow up.
    """
    _check_dim(n)
    _check_args(h, sigma)
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    nu = (n - 2) / 2.0

    def piece(refine):
        k, dlam = _trapezoid_nodes(profile, h, abs(t + sign * sigma), refine)
        lam = k * dlam
        b = symbol_split(nu, sigma * lam)[0 if sign == +1 else 1]
        tilde = profile(h * lam) * lam  # phi~(h lam)/h = lam phi(h lam)
        vals = np.exp(1j * (t + sign * sigma) * lam) * tilde * b
        return _kh_prefactor(n, sigma) * dlam * np.sum(vals)

    return _refine(piece)


def _row_blocks(size):
    """Slices of _BLOCK rows covering range(size), the last one taking up
    a lone leftover row: numpy hands a one-row product to a BLAS dot
    rather than gemv, which rounds differently."""
    starts = range(0, max(size - 1, 1), _BLOCK)
    return [slice(a, b) for a, b in zip(starts, [*starts[1:], size])]


def eval_Kh_batch(n, profile, h, sigma, t_array):
    """K_h(sigma, t) at equally spaced times t_j = t_0 + j dt, dt > 0, as
    one FFT.

    On the nodes lam_k = k dlam, dlam = 2 pi / (N dt), the trapezoid sum
    of e^{i t_j lam} g(lam) is sum_k e^{i t_0 lam_k} g(lam_k)
    e^{2 pi i j k / N}: one length-N inverse DFT of those weights folded
    by k mod N, so a dt past Nyquist needs no more nodes.  The rule aliases
    the kernel from |t| >= 2 pi / dlam - max|t|; N is the smallest power
    of two that meets _trapezoid_nodes' rule at rate max|t| + sigma.
    ValueError unless t_array is an increasing arithmetic progression (to
    rounding); a single time takes dt = 1.
    """
    _check_dim(n)
    _check_args(h, sigma)
    t_array = np.asarray(t_array, dtype=float).ravel()
    size = t_array.size
    t0, top = t_array[0], np.max(np.abs(t_array))
    dt = (t_array[-1] - t0) / (size - 1) if size > 1 else 1.0
    drift = np.max(np.abs(t0 + dt * np.arange(size) - t_array))
    if not dt > 0 or drift > 8 * np.spacing(top):
        raise ValueError("t_array must be an increasing arithmetic "
                         "progression")
    k, dlam = _trapezoid_nodes(profile, h, top + sigma, dt=dt)
    size_fft = round(2 * np.pi / (dlam * dt))
    lam = k * dlam
    c = np.exp(1j * t0 * lam) * _kh_integrand(n, profile, h, sigma, lam)
    fold = k % size_fft
    folded = (np.bincount(fold, c.real, size_fft)
              + 1j * np.bincount(fold, c.imag, size_fft))
    sums = np.fft.ifft(folded, norm="forward")[:size]
    return _kh_prefactor(n, sigma) * dlam * sums


def eval_Kh_sigma_batch(n, profile, h, sigma_array, t):
    """K_h(sigma, t) for an array of radii at one time, sharing one lambda
    grid; the Bessel matrix is formed _BLOCK radii at a time."""
    _check_dim(n)
    sigma_array = np.asarray(sigma_array, dtype=float).ravel()
    _check_args(h, sigma_array)
    nu = (n - 2) / 2.0
    k, dlam = _trapezoid_nodes(profile, h, abs(t) + np.max(sigma_array))
    lam = k * dlam
    base = profile(h * lam) * lam * np.exp(1j * t * lam)
    out = np.empty(sigma_array.shape, dtype=complex)
    for rows in _row_blocks(sigma_array.size):
        # two real GEMVs: a real block times a complex vector would first
        # cast the whole block to complex; the block is freed before the
        # next one is formed
        caj = caljnu(nu, np.outer(sigma_array[rows], lam))
        out.real[rows] = caj @ base.real
        out.imag[rows] = caj @ base.imag
        del caj
    return _kh_prefactor(n, sigma_array) * dlam * out


def plancherel_lambda_side(n, profile, h, sigma):
    """Frequency-side value of int |K_h(sigma, t)|^2 dt:
    2 pi pref^2 h^{-2} int |phi~(h lam) caljnu(sigma lam)|^2 dlam; the
    square of J_nu oscillates at rate 2 sigma."""
    _check_dim(n)
    _check_args(h, sigma)
    k, dlam = _trapezoid_nodes(profile, h, 2 * sigma)
    lam = k * dlam
    integrand = np.abs(h * profile(h * lam) * lam
                       * caljnu((n - 2) / 2.0, sigma * lam)) ** 2
    pref = _kh_prefactor(n, sigma)
    return 2 * np.pi * pref ** 2 * h ** -2 * dlam * np.sum(integrand)


def write_kernel_scan(path, n, profile, h, sigma_values, t_values):
    """CSV export of kernel scans: rows (sigma, t, h, re, im).  The
    t_values need not be equally spaced, so each point takes the refined
    eval_Kh."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sigma", "t", "h", "re", "im"])
        for sigma in sigma_values:
            for t in t_values:
                v = eval_Kh(n, profile, h, sigma, t)
                writer.writerow([sigma, t, h, v.real, v.imag])
