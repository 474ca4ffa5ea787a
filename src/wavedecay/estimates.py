"""Verification harness: compute the left-hand sides of the decay
estimates over (t, h, s, lambda, theta) grids, fit power laws, and emit
pass/fail reports.

Constants in the target inequalities are existential, so every check
tests exponents (log-log fits) or boundedness (max/min stability ratios),
never absolute values.  All L^p quantities are radial-sector norms; that
caveat is attached to the reports wherever p != 2.

Propagator multipliers are handled in low-rank form: a frequency profile
keeps only the eigenpairs in its band (``DiscreteOperator.band``), and the
band norms of ``norms`` never assemble the dense M x M matrix.
"""

from __future__ import annotations

import csv
import json
import os
from functools import lru_cache, partial
from math import floor

import numpy as np

from .fitting import STABILITY_CAP, _stability, fit_power_law
from .freekernel import eval_Kh_batch, eval_Kh_sigma_batch
from .norms import (LowRank, band_norm_1_to_inf, band_norm_2,
                    band_norm_2_to_inf)
from .profiles import (bump, mollifier, plateau, step_cutoff,
                       step_cutoff_derivative)
from .radialop import build_G, build_G0, weight_matrix
from .resolvent import EPS, ls_sweep, resolvent_difference_vector
from .specfun import gauss_panels

__all__ = [
    "EPS",
    "cone_sup",
    "check_kernel_bounds",
    "check_prop21",
    "check_thm31",
    "check_smoothing",
    "check_thm34",
    "check_weighted_time_integral",
    "mollified_multiplier_suite",
    "check_thm41",
    "assemble_thm11",
    "rollup_rows",
    "write_rollup",
    "emit_reports",
]

SECTOR_NOTE = "radial-sector norm, faithful for radial data only"


def _ratio_report(values):
    ratio = _stability(values)
    return {"kind": "stability", "sup": float(max(values)),
            "ratio": ratio, "cap": STABILITY_CAP,
            "passed": bool(ratio <= STABILITY_CAP)}


# ---------------------------------------------------------------------------
# free kernel checks

# One window per (n, profile, h, t) serves every weight power of (2.7)
# and the sup of (2.2), which reads the windows (2.7) formed.  A verify
# run forms at most 9 + len(h_set) windows of 2 x 65 floats; the bound
# caps what a long session can pin.  The arrays are read-only, so sharing
# is safe.
@lru_cache(maxsize=64)
def _cone_window(n, profile, h, t):
    """(sigma, |K_h(sigma, t)|) on the light-cone window sigma in
    [3t/4, 5t/4], 65 samples.

    The window tracks where the stated rates are attained: the deep
    interior (sigma << t) carries a transient that dies off much faster
    and would steepen small-t fits, the far field is vacuum."""
    sig = np.linspace(0.75 * t, 1.25 * t, 65)
    vals = np.abs(eval_Kh_sigma_batch(n, profile, h, sig, t))
    sig.flags.writeable = vals.flags.writeable = False
    return sig, vals


def cone_sup(n, profile, h, t):
    """sup of |K_h(sigma, t)| over the light-cone window (_cone_window)."""
    return float(np.max(_cone_window(n, profile, h, t)[1]))


# Free-kernel t-fits run to t = 128: there is no spatial box to reflect
# off, so the horizon cap of the grid-based checks does not apply.
KERNEL_T = tuple(8.0 * 2.0 ** (k / 2.0) for k in range(9))

# a time integral over t in R is twice one over (0, T_CUT], at steps of dt
T_CUT = 64.0

# times per block of _time_side_values
_T_BLOCK = 64


def _times(dt):
    return np.arange(dt, T_CUT + dt / 2, dt)


def _total_and_tail(vals, dt):
    """Time integral of vals at _times(dt), and its share past T_CUT / 2."""
    total = 2.0 * float(np.trapezoid(vals, dx=dt))
    tail = 2.0 * float(np.trapezoid(vals[_times(dt) > T_CUT / 2],
                                    dx=dt)) / total
    return total, tail


def check_kernel_bounds(n, profile, h_set):
    """Pointwise decay, weighted time integrals, and the light-cone
    integral of the free kernel."""
    top = (n - 1) / 2.0
    reports = {}

    def sup(h, t, weight_power=0.0):
        sig, vals = _cone_window(n, profile, h, t)
        return float(np.max(vals * sig ** weight_power))

    for s in (0.0, (n - 1) / 4.0, top):
        rows = [(t, sup(1.0, t, top - s)) for t in KERNEL_T]
        reports[f"2.7_t_s{s:g}"] = fit_power_law(
            rows, "2.7", "t", target=-s, tolerance=0.2).as_dict()

    rows = [(h, sup(h, 16.0)) for h in h_set]
    reports["2.7_h"] = fit_power_law(rows, "2.7", "h",
                                     target=-(n + 1) / 2.0,
                                     tolerance=0.3).as_dict()

    # (2.8): truncated int |t|^{2s} |K|^2 dt at s=0, sigma- and h-scans
    def time_integral(h, sigma):
        vals = np.abs(eval_Kh_batch(n, profile, h, sigma, _times(0.125))) ** 2
        return _total_and_tail(vals, 0.125)

    rows, tails = [], {}
    for sigma in (1.0, 2.0, 4.0, 8.0, 16.0):
        total, tail = time_integral(1.0, sigma)
        rows.append((sigma, total))
        tails[f"{sigma:g}"] = tail
    reports["2.8_sigma"] = fit_power_law(
        rows, "2.8", "sigma", target=-(n - 1), tolerance=0.3).as_dict()
    reports["2.8_sigma"]["truncation_tails"] = tails

    rows = [(h, time_integral(h, 2.0)[0]) for h in h_set]
    reports["2.8_h"] = fit_power_law(rows, "2.8", "h", target=-n,
                                     tolerance=0.4).as_dict()

    # (2.9): |t|^{(n-1)/2} int_0^{t/2} sigma^{n-1} |K| dsigma bounded
    values = {}
    for t in KERNEL_T:
        sig = np.linspace(t / 512.0, t / 2.0, 257)
        vals = sig ** (n - 1) * np.abs(
            eval_Kh_sigma_batch(n, profile, 1.0, sig, t))
        values[f"{t:g}"] = float(
            t ** top * np.trapezoid(vals, sig))
    reports["2.9"] = _ratio_report(values.values())
    reports["2.9"]["values"] = values
    return reports


def _weighted_l2_fit(band, w, t_set, s, estimate_id):
    """Fit of ||w P(t) w||_2 over t_set for the band P(t) of a profile:
    target t^{-s}, to 0.05 at s = 0 and one-sided to 0.2 above."""
    wb = w[:, None] * band.vecs
    rows = list(zip(t_set, band_norm_2(wb, wb, band.coeff(t_set))))
    return fit_power_law(rows, estimate_id, "t", target=-s,
                         tolerance=0.05 if s == 0.0 else 0.2,
                         one_sided=s > 0.0).as_dict()


def check_prop21(grid, n, profile, h_set, t_set):
    """Free propagator decay: weighted L2, kernel sup, L2->Linf rows and
    the weighted time integral of delta-like data; h-scans at t = 16."""
    top = (n - 1) / 2.0
    op0 = build_G0(grid, n)
    reports = {}

    band = op0.band(profile, 1.0)
    for s in (0.0, (n - 1) / 4.0, top):
        reports[f"2.1_s{s:g}"] = _weighted_l2_fit(
            band, weight_matrix(grid, s), t_set, s, "2.1")

    rows = [(t, cone_sup(n, profile, 1.0, t)) for t in KERNEL_T]
    reports["2.2_t"] = fit_power_law(rows, "2.2", "t", target=-top,
                                     tolerance=0.2).as_dict()
    rows = [(h, cone_sup(n, profile, h, 16.0)) for h in h_set]
    reports["2.2_h"] = fit_power_law(rows, "2.2", "h",
                                     target=-(n + 1) / 2.0,
                                     tolerance=0.3).as_dict()

    s = top
    w = weight_matrix(grid, 0.5 + s + EPS)

    def rows_23(h, ts):
        band = op0.band(profile, h)
        right = w[:, None] * band.vecs
        return list(zip(ts, band_norm_2_to_inf(band.vecs, right,
                                               band.coeff(ts), grid, n)))

    # one h = 1 scan holds 2.3_t's rows and 2.3_h's h = 1 row (t = 16)
    scan = dict(rows_23(1.0, sorted({*t_set, 16.0})))
    reports["2.3_t"] = fit_power_law([(t, scan[t]) for t in t_set], "2.3",
                                     "t", target=-s, tolerance=0.2,
                                     one_sided=True).as_dict()
    hrows = [(h, scan[16.0] if h == 1.0 else rows_23(h, [16.0])[0][1])
             for h in h_set]
    reports["2.3_h"] = fit_power_law(hrows, "2.3", "h",
                                     target=-(n + 1) / 2.0,
                                     tolerance=0.3).as_dict()
    for key in ("2.3_t", "2.3_h"):
        reports[key]["note"] = SECTOR_NOTE

    # (2.4): delta data; the L1 normalization of a grid delta is
    # rho_j dr, which is h-independent and drops out of the fit
    j_delta = int(round(6.0 / grid.dr))
    rows, tails = [], {}
    for h in h_set:
        total, tail, _ = _time_side_integral(op0, profile, h, w, s,
                                             np.eye(grid.M)[:, [j_delta]])
        rows.append((h, total))
        tails[f"{h:g}"] = tail
    reports["2.4_h"] = fit_power_law(rows, "2.4", "h", target=-n,
                                     tolerance=0.4).as_dict()
    reports["2.4_h"]["truncation_tails"] = tails
    return reports


def _time_side_values(op, profile, h, w, s, test_vectors, t_arr):
    """(|t|^{2s} ||w P(t) f||^2 summed over the test vectors at each t of
    t_arr, band mass), computed in band coordinates, _T_BLOCK times at a
    time.

    band mass = sum ||amp (vecs^T f)||^2, the energy the localized
    propagator actually sees.  Fixed test data loads each frequency band
    very unevenly, so h-comparisons of raw time integrals only make sense
    after dividing by it."""
    band = op.band(profile, h)
    wb = w[:, None] * band.vecs
    proj = band.vecs.T @ test_vectors
    # (real or imaginary part, t, test vector)
    vals = np.empty((2, t_arr.size, proj.shape[1]))
    for start in range(0, t_arr.size, _T_BLOCK):
        rows = slice(start, start + _T_BLOCK)
        # P(t) f in band coordinates, (k, t, test vector) flattened to
        # (k, t J): ||w V ph||^2 of each column directly (the Gram form
        # cancels at late t)
        ph = (band.coeff(t_arr[rows]).T[:, :, None]
              * proj[:, None, :]).reshape(len(band.roots), -1)
        parts = np.concatenate([ph.real, ph.imag], axis=1)
        vals[:, rows] = np.sum((wb @ parts) ** 2, axis=0).reshape(
            2, -1, proj.shape[1])
    vals = vals.sum(axis=(0, 2))
    b = band.amps[:, None] * proj
    return vals * t_arr ** (2.0 * s), float(np.sum(np.abs(b) ** 2))


def _time_side_integral(op, profile, h, w, s, test_vectors):
    """(total, tail ratio, band mass) of int |t|^{2s} ||w P(t) f||^2 dt
    summed over the test vectors, sampled at steps of 1/4."""
    vals, band_mass = _time_side_values(op, profile, h, w, s, test_vectors,
                                        _times(0.25))
    return (*_total_and_tail(vals, 0.25), band_mass)


def check_thm31(grid, n, potential, profile, h_set, t_set=(1.0, 4.0, 16.0)):
    """sup_t of the propagator-difference L2 norm, fitted in h."""
    op0, op = build_G0(grid, n), build_G(grid, n, potential)
    if potential.c == 0.0:
        # the difference is the zero operator; assemble both sides densely
        # so identical eigensystems cancel bit-exactly
        worst = 0.0
        for h in h_set:
            for t in t_set:
                mats = [LowRank(band.vecs, band.coeff(t), band.vecs).matrix
                        for band in (op.band(profile, h),
                                     op0.band(profile, h))]
                worst = max(worst, float(np.abs(mats[0] - mats[1]).max()))
        return {"3.1": {"all_zero": worst == 0.0, "max_abs_entry": worst,
                        "passed": worst == 0.0,
                        "note": "zero potential: difference must vanish "
                                "identically"}}
    rows, per_h = [], {}
    for h in h_set:
        diff = op.band(profile, h) - op0.band(profile, h)
        norms = band_norm_2(diff.vecs, diff.vecs, diff.coeff(t_set))
        per_h[f"{h:g}"] = dict(zip((f"{t:g}" for t in t_set),
                                   (float(v) for v in norms)))
        rows.append((h, max(norms)))
    out = fit_power_law(rows, "3.1", "h", target=1.0, tolerance=0.2,
                        one_sided=True).as_dict()
    out["t_stability"] = {h: _stability(v.values())
                          for h, v in per_h.items()}
    out["norms"] = per_h
    return {"3.1": out}


def check_smoothing(grid, n, potential, profile, h_set):
    """Time-side square integrability and the frequency-side jump bound."""
    op = build_G(grid, n, potential)
    w = weight_matrix(grid, 0.5 + EPS)
    tests = _gaussian_tests(grid)
    totals, tails, raw = {}, {}, {}
    for h in h_set:
        total, tail, mass = _time_side_integral(op, profile, h, w, 0.0,
                                                tests)
        # per unit of band energy: the fixed Gaussians load high bands
        # exponentially weakly, so raw totals are not h-comparable
        totals[f"{h:g}"] = total / mass
        raw[f"{h:g}"] = total
        tails[f"{h:g}"] = tail
    time_rep = _ratio_report(totals.values())
    time_rep.update({"totals_per_band_mass": totals, "raw_totals": raw,
                     "dyadic_tail_ratios": tails,
                     "tails_passed": bool(max(tails.values()) <= 0.5)})
    time_rep["passed"] = bool(time_rep["passed"]
                              and time_rep["tails_passed"])

    lo, hi = profile.support
    lams = np.concatenate([np.linspace(lo / h, hi / h, 17) for h in h_set])
    x = resolvent_difference_vector(grid, n, potential, lams)
    vals = (lams * profile(np.repeat(h_set, 17) * lams) ** 2 * grid.dr
            * np.linalg.norm(w[:, None] * x, axis=0) ** 2).reshape(-1, 17)
    sups = {f"{h:g}": float(np.max(v)) for h, v in zip(h_set, vals)}
    freq_rep = _ratio_report(sups.values())
    freq_rep["sups"] = sups
    return {"3.2_time": time_rep, "3.15_freq": freq_rep}


def _gaussian_tests(grid):
    r = grid.nodes
    cols = [np.exp(-(r - c) ** 2) for c in (4.0, 8.0, 12.0)]
    return np.stack(cols, axis=1)


def check_thm34(grid, n, potential, profile, h_set, t_set, s_set=None):
    """Weighted L2 decay of the perturbed propagator, per s, with
    h-uniformity of the fitted exponents."""
    if s_set is None:
        s_set = (0.0, 0.75, (n - 1) / 2.0)
    op = build_G(grid, n, potential)
    reports = {}
    for s in s_set:
        w = weight_matrix(grid, s + EPS)
        fits = {f"{h:g}": _weighted_l2_fit(op.band(profile, h), w, t_set, s,
                                           "3.18")
                for h in h_set}
        exps = [f["fitted_exponent"] for f in fits.values()]
        spread = float(max(exps) - min(exps))
        reports[f"3.18_s{s:g}"] = {
            "fits": fits, "exponent_spread": spread,
            "passed": bool(all(f["passed"] for f in fits.values())
                           and spread <= 0.15)}
    return reports


def check_weighted_time_integral(grid, n, potential, profile, h_set):
    """Dyadic-block decay of int |t|^{2s} ||w P w f||^2 dt at the top
    weight s = (n - 1) / 2."""
    s, dt = (n - 1) / 2.0, 0.125
    op = build_G(grid, n, potential)
    w = weight_matrix(grid, 0.5 + s + EPS)
    tests = w[:, None] * _gaussian_tests(grid)
    t_arr = _times(dt)
    edges = [2.0 ** k for k in range(2, int(np.log2(T_CUT)) + 1)]
    totals, blocks = {}, {}
    for h in h_set:
        vals, mass = _time_side_values(op, profile, h, w, s, tests, t_arr)
        sums = []
        for lo, hi in zip(edges[:-1], edges[1:]):
            mask = (t_arr >= lo) & (t_arr < hi)
            sums.append(2.0 * float(np.trapezoid(vals[mask], dx=dt)))
        blocks[f"{h:g}"] = sums
        # same band-mass normalization as the unweighted time integral
        totals[f"{h:g}"] = _total_and_tail(vals, dt)[0] / mass
    ratios = {h: [b / a for a, b in zip(s_[:-1], s_[1:])]
              for h, s_ in blocks.items()}
    # geometric decay beyond t = 16: the last block ratios
    worst = max(max(r[-2:]) for r in ratios.values())
    rep = _ratio_report(totals.values())
    rep.update({"block_sums": blocks, "block_ratios": ratios,
                "block_cap": 0.8, "worst_late_ratio": float(worst)})
    rep["passed"] = bool(rep["passed"] and worst <= 0.8)
    return {"3.20": rep}


# ---------------------------------------------------------------------------
# mollified multiplier family

def _packet_frame(grid, r_cut):
    """Orthonormal frame of radial probes: plain Gaussians plus packets
    oscillating at the band carrier 1.5, with dyadic-ish centers out to
    r_cut.  The carrier copies are what couple to the outgoing e^{i
    lambda r} tails of the resolvent, whose lambda-derivatives grow like
    powers of r; a frame confined to small r would see an artificially
    smooth family."""
    r, carrier = grid.nodes, 1.5
    centers = [c for c in (1.0, 2.0, 3.0, 5.0, 8.0, 12.0, 18.0, 27.0,
                           40.0, 60.0, 90.0) if c <= r_cut]
    cols = []
    for c in centers:
        env = np.exp(-((r - c) / max(1.0, min(c / 4.0, 12.0))) ** 2)
        cols.append(env.astype(complex))
        cols.append(env * np.exp(1j * carrier * r))
    # slowly decaying oscillating columns spanning r^k <r>^{-w} e^{i lam
    # r}, the extremizers of the lambda-derivative blow-up
    for q_tail in (0.05, 0.55, 0.95):
        env = (1.0 + r ** 2) ** (-q_tail / 2.0)
        cols.append(env * np.exp(1j * carrier * r))
        cols.append(env * np.exp(-1j * carrier * r))
    q, _ = np.linalg.qr(np.stack(cols, axis=1))
    return q


class _LatticeFamily:
    """Frame-compressed weighted resolvent family cached on a uniform
    lambda lattice, with cubic interpolation in lambda.

    Each lattice node stores the K x K compression F* (lam w R+ w) F
    onto a fixed orthonormal probe frame F, so norms of the family and
    of its lambda-derivatives are evaluated on tiny matrices while the
    probes themselves reach far into the weight tails.
    """

    def __init__(self, grid, n, potential, s, lam_lo, lam_hi, step, r_cut):
        self.step = step
        self.lo = lam_lo
        self.frame = _packet_frame(grid, r_cut)
        w = weight_matrix(grid, 0.5 + s + EPS)
        count = int(np.ceil((lam_hi - lam_lo) / step)) + 1
        self.lams = lam_lo + step * np.arange(count)
        wf = w[:, None] * self.frame
        self.mats = self.lams[:, None, None] * ls_sweep(
            grid, n, potential, self.lams, wf, left=np.conj(wf).T)

    def weights(self, order, lams):
        """Real (len(lams), L) rows of the order-th lambda-derivative of the
        cubic Lagrange interpolant, 4 nonzeros each: row @ mats is that
        derivative at lam.  Differentiating the interpolant analytically
        avoids the 1/step^2 amplification a finite difference across
        interpolated values would suffer.  Raises ValueError for lam
        outside the lattice."""
        return self.shifted_weights(order, lams, [0.0], [1.0])

    def shifted_weights(self, order, lams, shifts, coefs):
        """sum_k coefs[k] weights(order, lams + shifts[k]), summed in k
        order: the 4 nonzeros of every row of every shift are formed at
        once and scattered by one bincount, so no (len(lams), L) array
        forms per shift.  Each entry gets the sum a loop over the shifts
        would give, bit for bit."""
        lams = np.atleast_1d(np.asarray(lams, dtype=float))
        at = lams[:, None] + np.asarray(shifts)
        size = len(self.lams)
        x = (at - self.lo) / self.step
        inside = (x >= 0.0) & (x <= size - 1)
        if not np.all(inside):
            raise ValueError(
                f"lambda {at[~inside][0]:g} outside the lattice "
                f"[{self.lams[0]:g}, {self.lams[-1]:g}]")
        j = np.clip(np.floor(x).astype(int), 1, size - 3)
        u = x - j
        if order == 0:
            w = (-u * (u - 1) * (u - 2) / 6.0,
                 (u + 1) * (u - 1) * (u - 2) / 2.0,
                 -(u + 1) * u * (u - 2) / 2.0,
                 (u + 1) * u * (u - 1) / 6.0)
        elif order == 1:
            w = (-(3 * u * u - 6 * u + 2) / 6.0,
                 (3 * u * u - 4 * u - 1) / 2.0,
                 -(3 * u * u - 2 * u - 2) / 2.0,
                 (3 * u * u - 1) / 6.0)
        elif order == 2:
            w = (1.0 - u, 3.0 * u - 2.0, 1.0 - 3.0 * u, u)
        else:
            raise ValueError("derivatives cached for order <= 2")
        # entry (lam, shift, k) lands in row lam, column j - 1 + k; the
        # bincount takes a row's entries in shift order
        flat = (j[..., None] + np.arange(-1, 3)
                + size * np.arange(lams.size)[:, None, None])
        vals = np.asarray(coefs)[:, None] * (np.stack(w, axis=-1)
                                             / self.step ** order)
        return np.bincount(flat.ravel(), vals.ravel(),
                           lams.size * size).reshape(lams.size, size)


def _row_norms(rows, mats):
    """2-norms of the K x K matrices rows @ mats, for weight rows (..., L)
    over a lattice stack mats (L, K, K): one contraction, batched norms.
    Real and imaginary rows contract apart, so a real stack is never
    copied to complex."""
    rows = np.asarray(rows)
    size, k = mats.shape[:2]
    flat, flat_rows = mats.reshape(size, k * k), rows.reshape(-1, size)
    prods = flat_rows.real @ flat + 1j * (flat_rows.imag @ flat)
    return np.linalg.norm(prods.reshape(-1, k, k), 2,
                          axis=(1, 2)).reshape(rows.shape[:-1])


# the mollifier suite's smoothing scales, theta-scan times, fit times and
# sampled lambdas
_THETAS = (0.5, 0.25, 0.125, 0.0625, 0.03125)
_T_SCAN = (8.0, 32.0)
_T_FIT = (4.0, 8.0, 16.0, 32.0, 64.0)
_LAM_SAMPLE = (1.2, 1.5, 1.8)


def mollified_multiplier_suite(grid, n, potential, r_cut=96.0,
                               lattice_step=1.0 / 256.0):
    """Regularity-vs-blowup tradeoff of the mollified multiplier family
    of the canonical bump and the stationary reconstruction it controls.

    The smoothing scale theta trades the Hoelder defect of the m-th
    derivative (slope mu) against blow-up of the (m+1)-st (slope mu - 1);
    the reconstruction objective is minimized near theta = 1/|t|.  The
    order is s = 1.4: the suite reads lambda-derivatives up to order
    floor(s) + 1 = 2, the highest the lattice interpolates.
    """
    s = 1.4
    m_order = int(floor(s))
    mu = s - m_order
    profile = bump()
    lo, hi = profile.support
    scan_thetas = [2.0 ** -k for k in range(1, 7)]
    # the mollifier reaches theta/2 past lambda; size the lattice for the
    # largest theta any part of the suite evaluates
    theta_max = max(*_THETAS, *scan_thetas, *(1.0 / t for t in _T_SCAN))
    pad = 2 * lattice_step
    fam = _LatticeFamily(grid, n, potential, s, lo - 4 * pad,
                         hi + theta_max / 2.0 + 4 * pad,
                         lattice_step, r_cut)
    mol = mollifier()

    def gauss(theta):
        sig, wts = gauss_panels([theta / 3.0, theta / 2.0], 16)
        return sig, wts * mol(sig / theta) / theta

    def mollified(order, theta, lams):
        """Rows of d^order T_theta^+ at lams, where T_theta^+ = theta^{-1}
        int T^+(lam + sigma) m(sigma/theta) dsigma with the unit-mass bump
        m on [1/3, 1/2]: the Gauss sum of shifted rows, normalised to exact
        unit mass."""
        sig, wts = gauss(theta)
        return fam.shifted_weights(order, lams, sig, wts) / np.sum(wts)

    # T^+ = mats / (pi i).  Per theta the rows are d^j T_theta^+ for
    # j = 0..m+1, then d^m T_theta^+ - d^m T^+, each at every sampled lambda
    lam_s = np.asarray(_LAM_SAMPLE, dtype=float)
    raw_m = fam.weights(m_order, lam_s)

    def theta_rows(th):
        d = [mollified(j, th, lam_s) for j in range(m_order + 2)]
        return np.stack([*d, d[m_order] - raw_m])

    plus = _row_norms(np.stack([theta_rows(th) for th in _THETAS]),
                      fam.mats) / np.pi
    reports = {}

    # (3.40): boundedness of the first m derivatives, all theta
    sups = {f"{th:g}": float(np.max(p[:m_order + 1]))
            for th, p in zip(_THETAS, plus)}
    reports["3.40"] = _ratio_report(sups.values())
    reports["3.40"]["sups"] = sups
    reports["3.40"]["mass_defects"] = {
        f"{th:g}": abs(float(np.sum(gauss(th)[1])) - 1.0)
        for th in _THETAS}

    # (3.41): ||d^m T_theta - d^m T|| ~ theta^mu
    rows = [(th, float(np.max(p[-1]))) for th, p in zip(_THETAS, plus)]
    reports["3.41"] = fit_power_law(rows, "3.41", "theta", target=mu,
                                    tolerance=0.15).as_dict()

    # (3.43): ||d^{m+1} T_theta|| ~ theta^{mu-1}
    rows = [(th, float(np.max(p[m_order + 1])))
            for th, p in zip(_THETAS, plus)]
    reports["3.43"] = fit_power_law(rows, "3.43", "theta",
                                    target=mu - 1.0,
                                    tolerance=0.15).as_dict()

    # reconstruction: int e^{it lam} phi(lam) X(lam) dlam on the lattice,
    # X the jump T = T^+ - T^-, by the trapezoid rule (the profile vanishes
    # at the ends of its support).  The incoming branch is the conjugate
    # at real lambda, so T = (2/pi) Im(mats); Im commutes with real weights
    base = fam.lams[(fam.lams >= lo) & (fam.lams <= hi)]
    quad = lattice_step * profile(base)
    jump = (2.0 / np.pi) * np.imag(fam.mats)
    raw = fam.weights(0, base)

    def phases(ts):
        return quad * np.exp(1j * np.outer(ts, base))

    # the theta-scan objective is ||raw - smooth part|| + ||smooth part||;
    # each theta's (base, L) rows are reduced to (_T_SCAN, L) at once
    scan_raw = phases(_T_SCAN) @ raw
    smooth = {th: phases(_T_SCAN) @ mollified(0, th, base)
              for th in {*scan_thetas, *(1.0 / t for t in _T_SCAN)}}
    scan_rows = [[(scan_raw[i] - smooth[th][i], smooth[th][i])
                  for th in (*scan_thetas, 1.0 / t)]
                 for i, t in enumerate(_T_SCAN)]
    vals = _row_norms(np.concatenate(
        [phases(_T_FIT) @ raw, np.reshape(scan_rows, (-1, len(fam.lams)))]),
        jump)
    recon = vals[:len(_T_FIT)]
    objective = vals[len(_T_FIT):].reshape(len(_T_SCAN), -1, 2).sum(axis=-1)

    reports["3.46_t"] = fit_power_law(list(zip(_T_FIT, recon)), "3.46", "t",
                                      target=-(m_order + mu),
                                      tolerance=0.2,
                                      one_sided=True).as_dict()

    scan_rep = {}
    for t, obj in zip(_T_SCAN, objective):
        scan = {f"{th:g}": float(v) for th, v in zip(scan_thetas, obj)}
        at_inv = float(obj[-1])
        best = min(scan.values())
        scan_rep[f"t{t:g}"] = {
            "scan": scan, "at_theta_1_over_t": at_inv,
            "scan_min": best, "passed": bool(at_inv <= 2.0 * best)}
    scan_rep["passed"] = bool(all(v["passed"]
                                  for v in scan_rep.values()))
    reports["3.46_theta_scan"] = scan_rep
    reports["_meta"] = {"s": s, "m": m_order, "mu": mu,
                        "grid": {"R": grid.R, "M": grid.M},
                        "frame_extent": r_cut,
                        "lattice_step": lattice_step}
    return reports


# ---------------------------------------------------------------------------
# section 4 / section 1 assemblies

def _free_kernel_sup(n, profile, h, t, cone_only=False):
    """sup_d |K_h(d, t)| of the free n-dim localized wave kernel
    (``eval_Kh_sigma_batch``) over distances d.  Sampling is dense near
    d = t (spacing h/4) because the cone peak has width O(h).  cone_only
    restricts to d in [t/2, 3t/2]."""
    d = np.concatenate([np.linspace(0.05, t + 5.0, 400),
                        t + h * np.linspace(-20.0, 20.0, 161)])
    d = np.unique(d[d > 0])
    if cone_only:
        d = d[(d >= t / 2) & (d <= 3 * t / 2)]
    return float(np.max(np.abs(eval_Kh_sigma_batch(n, profile, h, d, t))))


def check_thm41(grid, n, potential, profile, h_set, t_set):
    """Propagator-difference decay at the L^p endpoints (sector
    surrogates for p = infinity); the sector h-scans are taken at t = 4."""
    op0, op = build_G0(grid, n), build_G(grid, n, potential)
    top = (n - 1) / 2.0
    reports = {}

    to_inf_1 = partial(band_norm_1_to_inf, grid=grid, n=n)
    to_inf_2 = partial(band_norm_2_to_inf, grid=grid, n=n)

    def phi_norms(h, ts, norm, weight=None):
        diff = op.band(profile, h) - op0.band(profile, h)
        right = diff.vecs if weight is None else weight[:, None] * diff.vecs
        return list(zip(ts, norm(diff.vecs, right, diff.coeff(ts))))

    # (4.1) p=inf == (4.10): localized free kernel, pointwise sup.
    # t-decay is read off the light cone (the sup sits there for t >> h);
    # the h-fit is taken at t comparable to the profile scale, where the
    # near-field and cone contributions cross over and the h^{1-n}
    # envelope is the governing one.  For t >> h the sharp rate is the
    # milder h^{-(n+1)/2} |t|^{-(n-1)/2}.
    rows = [(t, _free_kernel_sup(n, profile, 1.0, t, cone_only=True))
            for t in t_set]
    reports["4.10_t"] = fit_power_law(rows, "4.10", "t", target=-top,
                                      tolerance=0.2,
                                      one_sided=True).as_dict()
    hrows = [(h, _free_kernel_sup(n, profile, h, 2.0)) for h in h_set]
    reports["4.10_h"] = fit_power_law(hrows, "4.10", "h",
                                      target=1.0 - n,
                                      tolerance=0.4).as_dict()
    reports["4.10_h"]["note"] = ("free n-dim kernel sup at t = 2; for "
                                 "t >> h the attained exponent relaxes "
                                 "to -(n+1)/2")
    # perturbative cross-check: the sector propagator difference at the
    # same endpoints, recorded without a fit target
    prows = phi_norms(1.0, t_set, to_inf_1)
    reports["4.10_sector_t"] = fit_power_law(
        prows, "4.10", "t", target=-top, tolerance=0.6,
        one_sided=True).as_dict()
    reports["4.10_sector_t"]["note"] = SECTOR_NOTE

    # (4.6): weighted L2 -> Linf surrogate
    w46 = weight_matrix(grid, (n - 1 + EPS) / 2.0)
    # one h = 1 scan holds 4.6_t's rows and 4.6_h's h = 1 row (t = 4)
    scan = dict(phi_norms(1.0, sorted({*t_set, 4.0}), to_inf_2, w46))
    reports["4.6_t"] = fit_power_law([(t, scan[t]) for t in t_set], "4.6",
                                     "t", target=-top, tolerance=0.2,
                                     one_sided=True).as_dict()
    hrows = [(h, scan[4.0] if h == 1.0
              else phi_norms(h, [4.0], to_inf_2, w46)[0][1])
             for h in h_set]
    reports["4.6_h"] = fit_power_law(hrows, "4.6", "h",
                                     target=1.0 - n / 2.0,
                                     tolerance=0.3).as_dict()

    # (4.2) p=inf: weight alpha(n/2 + eps) with alpha = 1
    w42 = weight_matrix(grid, n / 2.0 + EPS)
    hrows = [(h, phi_norms(h, [4.0], to_inf_2, w42)[0][1])
             for h in h_set]
    reports["4.2_h"] = fit_power_law(hrows, "4.2", "h",
                                     target=1.0 - n / 2.0,
                                     tolerance=0.3).as_dict()

    for key in reports:
        reports[key]["note"] = SECTOR_NOTE
    reports["4.1_p2"] = {"note": "alpha = 0 reduces to the 3.1 quantity; "
                                 "see report 3.1", "passed": True}
    return reports


def assemble_thm11(grid, n, potential, t_set=(4.0, 8.0, 16.0, 32.0,
                                              64.0)):
    """Scalar frequency-integration identity plus sector surrogates of
    the final dispersive estimates (alpha = 1 endpoints), for the step
    cutoff chi_a at a = 1."""
    op = build_G(grid, n, potential)
    a = 1.0
    chi = step_cutoff(a)
    reports = {}

    # sigma^{-beta} chi_a(sigma) = int_0^1 phi(theta sigma)
    # theta^{beta-1} dtheta with phi(sigma) = sigma^{1-beta} chi'_a(sigma)
    beta = (n + 1) / 2.0
    phi_id = step_cutoff_derivative(a).tilt(1.0 - beta)
    resid = 0.0
    for sigma in (0.5, 1.0, 1.7, 2.5, 4.0):
        lhs = sigma ** -beta * chi(np.array([sigma]))[0]
        tg, tw = gauss_panels([min(a / sigma, 1.0), min(2 * a / sigma, 1.0)],
                              64)
        rhs = float(np.sum(tw * phi_id(tg * sigma) * tg ** (beta - 1.0)))
        resid = max(resid, abs(rhs - lhs))
    reports["4.3_identity"] = {"max_residual": resid, "cap": 1e-8,
                               "passed": bool(resid <= 1e-8)}

    top = (n - 1) / 2.0

    # chi rolled off over [8, 16]: chi (1 - chi_8) = plateau(a, 8), as
    # chi = 1 wherever chi_8 > 0.  chi alone reaches the grid's Nyquist
    # frequency, where discrete modes have zero group velocity and never
    # leave the weight window; the smooth roll-off keeps the multiplier
    # inside the resolved part of the spectrum.
    rolled = plateau(a, 8.0)

    def multiplier_rows(tilt, norm, weight=None):
        band = op.band(rolled.tilt(tilt), 1.0)
        right = band.vecs if weight is None else weight[:, None] * band.vecs
        return list(zip(t_set, norm(band.vecs, right, band.coeff(t_set))))

    w14 = weight_matrix(grid, n / 2.0 + EPS)
    rows = multiplier_rows(-(n + 1) / 2.0,
                           partial(band_norm_2_to_inf, grid=grid, n=n), w14)
    reports["1.4"] = fit_power_law(rows, "1.4", "t", target=-top,
                                   tolerance=0.2, one_sided=True).as_dict()
    rows = multiplier_rows(-(n - 1.0),
                           partial(band_norm_1_to_inf, grid=grid, n=n))
    reports["1.3"] = fit_power_law(rows, "1.3", "t", target=-top,
                                   tolerance=0.2, one_sided=True).as_dict()
    # the unweighted band's eigenvector columns are orthonormal, so
    # ||V diag(c) V^T||_2 = max |c|, and |c| = |amps| at every t (the
    # propagator is unitary): the p = 2 row is one constant
    top_amp = np.max(np.abs(op.band(rolled, 1.0).amps))
    rows = [(t, top_amp) for t in t_set]
    reports["1.2_p2"] = fit_power_law(rows, "1.2", "t", target=0.0,
                                      tolerance=0.05).as_dict()
    for key in ("1.4", "1.3"):
        reports[key]["note"] = SECTOR_NOTE
        reports[key]["frequency_rolloff"] = [8.0, 16.0]
    reports["_exclusions"] = ("full-space L^p' -> L^p norms for "
                              "intermediate p are not reproducible from "
                              "the radial sector and are not claimed")
    return reports


# ---------------------------------------------------------------------------
# report plumbing

def rollup_rows(reports):
    """Flatten nested report dicts into (estimate_id, variable, target,
    fitted, tolerance, pass) rows for the roll-up CSV."""
    rows = []

    def walk(key, node):
        if not isinstance(node, dict):
            return
        if "fitted_exponent" in node:
            rows.append([key, node.get("variable", ""),
                         node.get("target", ""),
                         node.get("fitted_exponent", ""),
                         node.get("tolerance", ""),
                         bool(node.get("passed", False))])
            return
        if "passed" in node and ("ratio" in node or "max_residual" in node
                                 or "scan" in node):
            metric = node.get("ratio", node.get("max_residual", ""))
            rows.append([key, "ratio", node.get("cap", ""), metric, "",
                         bool(node["passed"])])
        for sub, val in node.items():
            if sub.startswith("_"):
                continue
            walk(f"{key}.{sub}" if key else sub, val)

    walk("", reports)
    return rows


def write_rollup(rows, out_dir):
    """rollup.csv of rollup rows in out_dir; returns its path."""
    path = os.path.join(out_dir, "rollup.csv")
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["estimate_id", "variable", "target", "fitted",
                    "tolerance", "pass"])
        w.writerows(rows)
    return path


def emit_reports(reports, out_dir):
    """One JSON file per top-level estimate id plus rollup.csv."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for key, node in sorted(reports.items()):
        if key.startswith("_"):
            continue
        path = os.path.join(out_dir, f"estimate_{key.replace('.', '_')}.json")
        with open(path, "w") as fh:
            json.dump(node, fh, indent=2, sort_keys=True, default=float)
        written.append(path)
    written.append(write_rollup(rollup_rows(reports), out_dir))
    return written
