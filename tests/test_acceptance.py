"""Acceptance suite: the sixteen headline checks at the reference
experiment scale (n=4, R=64, M=1280, c=2, delta=3, bump profile on [1,2]).

Each test is one criterion and prints one pass/fail line under pytest -v;
two unit tests on the small grid hold the k x k core routes of criteria
10 and 12 to the dense SVDs they replace.  Shared group reports are
computed once per session.

The estimates are upper bounds with existential constants, so a test
asserts what its bound states and no more: an exponent on the bounded
side of its target (criteria 3 and 14, one-sided) or a constant
bounded uniformly in h (criterion 12).  Criteria 3, 12 and 14 read the
numbers the program measures rather than the report's ``passed`` flag:
the emitted reports 2.9, 3.18_s1.5, 3.41 and 3.43 still grade flatness,
slope spread and two-sided attainment, so ``wavedecay verify`` exits 1
for those groups.

Criteria 7 and 11 still fail at their stated tolerances.  The window
h in [1/8, 1] is pre-asymptotic in the n=4 radial sector: the
centrifugal term 3/(4r^2) screens low frequencies from the potential
and holds the h=1 values down.  A finer grid (M=2560) moves the values
by at most 1.3% (2.31) and 3.4% (3.1), far too little to bring the
slopes to their targets; showing the rates needs a deeper h-window on
a finer grid.
"""

import numpy as np
import pytest

from wavedecay import estimates as est
from wavedecay.fitting import fit_power_law
from wavedecay.freekernel import plancherel_lambda_side
from wavedecay.funcalc import hs_multiplier, phi_of_hsqrt, verify_lemma23
from wavedecay.norms import LowRank
from wavedecay.profiles import bump
from wavedecay.propagator import (boundary_safe_gap, duhamel_split,
                                  time_domain_evolve, wave_multiplier,
                                  wave_via_resolvent)
from wavedecay.radialop import (PotentialSpec, RadialGrid, build_G,
                                build_G0, weight_matrix)
from wavedecay.resolvent import complex_shift_compare, la_norm_scan

N = 4
H_SET = (1.0, 0.5, 0.25, 0.125)
T_SET = (4.0, 5.66, 8.0, 11.31, 16.0, 22.63, 32.0, 45.25, 64.0)
PROF = bump()


@pytest.fixture(scope="session")
def grid():
    return RadialGrid(64.0, 1280)


@pytest.fixture(scope="session")
def pot():
    return PotentialSpec(2.0, 3.0)


@pytest.fixture(scope="session")
def ops(grid, pot):
    op0, op = build_G0(grid, N), build_G(grid, N, pot)
    op0.eigensystem()
    op.eigensystem()
    return op0, op


@pytest.fixture(scope="session")
def kernel_reports():
    return est.check_kernel_bounds(N, PROF, H_SET)


@pytest.fixture(scope="session")
def lemma_reports(grid, pot, ops):
    op0, op = ops
    return verify_lemma23(grid, N, op0, op, PROF, H_SET)


@pytest.fixture(scope="session")
def thm41_reports(grid, pot, ops):
    return est.check_thm41(grid, N, pot, PROF, H_SET, T_SET)


def test_criterion_01_free_kernel_time_decay(kernel_reports):
    rep = kernel_reports["2.7_t_s1.5"]
    assert rep["passed"], (
        f"sup_sigma |K| t-slope {rep['fitted_exponent']:.3f} not in "
        f"-1.5 +/- 0.2")


def test_criterion_02_free_kernel_h_scaling(kernel_reports):
    rep = kernel_reports["2.7_h"]
    assert rep["passed"], (
        f"h-slope at t=16 is {rep['fitted_exponent']:.3f}, "
        f"not -2.5 +/- 0.3")


def test_criterion_03_light_cone_integral(kernel_reports):
    """(2.9) bounds t^{(n-1)/2} int_0^{t/2} sigma^{n-1} |K_1| dsigma as
    t -> oo.  Below sigma = t/2 the phase is non-stationary, so the
    quantity may fall; the bound is asserted as the one-sided t-fit every
    other t-decay bound uses (slope <= 0 + 0.2), not as flatness."""
    values = kernel_reports["2.9"]["values"]
    fit = fit_power_law([(t, values[f"{t:g}"]) for t in est.KERNEL_T],
                        "2.9", "t", target=0.0, tolerance=0.2,
                        one_sided=True)
    assert fit.passed, (
        f"t^1.5 int sigma^3 |K| grows like t^{fit.fitted_exponent:.3f} "
        f"over t in [8,128], faster than t^0.2")


@pytest.mark.parametrize("sigma", [1.0, 4.0])
def test_criterion_04_plancherel(sigma, panel_Kh_batch):
    # the time side by panel quadrature: an FFT time side would make this
    # discrete Parseval
    lam_side = plancherel_lambda_side(N, PROF, 1.0, sigma)
    dt = 0.05
    ts = np.arange(dt / 2, 200.0, dt)
    vals = np.abs(panel_Kh_batch(N, PROF, 1.0, sigma, ts)) ** 2
    time_side = 2.0 * float(np.sum(vals) * dt)
    gap = abs(time_side - lam_side) / lam_side
    assert gap <= 0.01, f"time vs lambda side differ by {gap:.2%}"


def test_criterion_05_limiting_absorption(grid, pot):
    lams = np.geomspace(1.0, 8.0, 9)
    rows, gaps = la_norm_scan(grid, N, PotentialSpec(0.0, 3.0), lams)
    rep = fit_power_law([(lam, nrm) for lam, nrm, _ in rows], "la",
                        "lambda", target=-1.0, tolerance=0.1)
    assert not gaps and rep.passed, (
        f"free lambda-slope {rep.fitted_exponent:.3f} not in -1 +/- 0.1")
    rows, gaps = la_norm_scan(grid, N, pot, lams)
    ln = [r[2] for r in rows]
    assert not gaps and max(ln) / min(ln) <= 10.0, (
        f"perturbed lambda*norm ratio {max(ln) / min(ln):.2f} > 10")
    for eta in (1.0, 0.5):
        g = complex_shift_compare(grid, N, pot, 2.0, eta=eta)
        assert g <= 0.10, f"complex-shift gap {g:.2%} at eta={eta}"


def test_criterion_06_functional_calculus_oracle(ops):
    _, op = ops
    got = hs_multiplier(op, PROF, 1.0, order=8, tol=1e-7, block=400)
    gap = np.linalg.norm(got - phi_of_hsqrt(op, PROF, 1.0), 2)
    assert gap <= 1e-6, f"quadrature vs eigen route gap {gap:.2e}"


def test_criterion_07_cutoff_difference_h_slopes(lemma_reports):
    r28 = lemma_reports["2.28"]
    r31 = lemma_reports["2.31"]["2"]
    assert r28["passed"] and r31["passed"], (
        f"difference h-slopes {r28['fitted_exponent']:.3f} (weighted) / "
        f"{r31['fitted_exponent']:.3f} (L2) vs 2 +/- 0.3; the window h in "
        f"[1/8, 1] is pre-asymptotic: in the n=4 sector the centrifugal "
        f"term 3/(4r^2) screens low frequencies from V and holds the h=1 "
        f"end down (local L2 slopes steepen 0.44, 1.07, 1.37 toward 2; "
        f"M=2560 agrees to 1.3%, so not under-resolution)")


def test_criterion_08_bernstein_scaling(lemma_reports):
    rep = lemma_reports["2.32"]
    assert rep["passed"], (
        f"L2->Linf h-slope {rep['fitted_exponent']:.3f} not in "
        f"-2 +/- 0.3")


def test_criterion_09_propagator_triangulation(grid, pot, ops):
    _, op = ops
    f = np.exp(-((grid.nodes - 8.0)) ** 2)
    rec = time_domain_evolve(op, f, 8.0, 0.5 * grid.dr, PROF, 1.0)
    expect = wave_multiplier(op, PROF, 1.0, 8.0).matrix @ f
    rel = np.linalg.norm(rec.u - expect) / np.linalg.norm(expect)
    assert rel <= 1e-4, f"leapfrog vs eigen relative error {rel:.2e}"
    eig = wave_multiplier(op, PROF, 1.0, 4.0, square_profile=True)
    res = wave_via_resolvent(grid, N, pot, PROF, 1.0, 4.0)
    gap = boundary_safe_gap(res, eig, grid)
    assert gap <= 0.02, f"eigen vs resolvent-formula gap {gap:.2%}"


def _core_norm_2(a):
    """||a||_2 of a LowRank by LAPACK's SVD of its core: with the thin QRs
    Q_l R_l = left diag(coeffs) and Q_r R_r = right, a = Q_l R_l R_r^T
    Q_r^T, so ||a||_2 = ||R_l R_r^T||_2, a k x k matrix, not M x M."""
    return np.linalg.norm(np.linalg.qr(a.left * a.coeffs, mode="r")
                          @ np.linalg.qr(a.right, mode="r").T, 2)


def _duhamel_parts(op0, op, h, t):
    """(phi1 + h phi2 - D, D) for the propagator difference D, the band
    difference op.band - op0.band at t."""
    phi1, phi2 = duhamel_split(op0, op, PROF, h, t)
    diff = op.band(PROF, h) - op0.band(PROF, h)
    d = LowRank(diff.vecs, diff.coeff(t), diff.vecs)
    return phi1 + h * phi2 - d, d


def test_criterion_10_duhamel_reconstruction(ops):
    num, d = _duhamel_parts(*ops, 0.5, 4.0)
    resid = _core_norm_2(num) / _core_norm_2(d)
    assert resid <= 0.01, f"duhamel residual {resid:.2%} of the difference"


@pytest.mark.parametrize("h, t", [(0.5, 4.0), (1.0, 3.0), (0.25, 1.0)])
def test_duhamel_core_matches_dense(small_grid, potential, h, t):
    """Criterion 10's core route holds to LAPACK's SVD of the dense
    numerator and difference on the tests' grid."""
    ops = build_G0(small_grid, N), build_G(small_grid, N, potential)
    for part in _duhamel_parts(*ops, h, t):
        assert _core_norm_2(part) == pytest.approx(
            np.linalg.norm(part.matrix, 2), rel=1e-12)


def test_criterion_11_difference_growth_rate(grid, pot):
    rep = est.check_thm31(grid, N, pot, PROF, H_SET)["3.1"]
    zero = est.check_thm31(grid, N, PotentialSpec(0.0, 3.0), PROF,
                           H_SET[:2], t_set=(1.0, 4.0))["3.1"]
    assert zero["all_zero"] and zero["passed"], "c=0 must give exact zeros"
    assert rep["passed"], (
        f"sup_t difference-norm h-slope {rep['fitted_exponent']:.3f} "
        f"< 0.8; the window h in [1/8, 1] is pre-asymptotic: the "
        f"centrifugal term 3/(4r^2) screens low frequencies from V and "
        f"holds the h=1 end down, so max_t norm/h still rises 0.0107, "
        f"0.0194, 0.0232, 0.0250 before it levels off")


def _weighted_decay_constant(grid, op, h, s, t_set):
    """sup_t t^s ||W e^{it sqrt(G)} phi(h sqrt(G)) W||_2, W = <r>^{-(s+EPS)},
    the constant of (3.18) by the eigen route.  The propagator is
    V diag(c(t)) V^T on the band op.band(PROF, h), so with one thin QR,
    Q R = W V, the norm is ||R diag(c(t)) R^T||_2: LAPACK's SVD of a
    k x k core, not of the M x M matrix, and independent of the Lanczos
    kernel that check_thm34 reaches."""
    band = op.band(PROF, h)
    core = np.linalg.qr(weight_matrix(grid, s + est.EPS)[:, None]
                        * band.vecs, mode="r")
    return max(t ** s * np.linalg.norm((core * band.coeff(t)) @ core.T, 2)
               for t in t_set)


@pytest.mark.parametrize("h", H_SET[:3])
def test_weighted_decay_core_matches_dense(small_grid, potential, h):
    """Criterion 12's core route holds to LAPACK's SVD of the dense
    weighted propagator W A(t) W on the tests' grid."""
    op = build_G(small_grid, N, potential)
    w = weight_matrix(small_grid, 1.5 + est.EPS)
    for t in (4.0, 16.0):
        dense = w[:, None] * wave_multiplier(op, PROF, h, t).matrix * w
        assert _weighted_decay_constant(small_grid, op, h, 1.5, (t,)) == (
            pytest.approx(t ** 1.5 * np.linalg.norm(dense, 2), rel=1e-12))


def test_criterion_12_weighted_decay_consistency(grid, pot, ops):
    """(3.18) at s = 1.5: C |t|^{-s} with C uniform in h (the
    "h-uniformity" of check_thm34).  An upper bound fixes no exponent,
    so uniformity is asserted on the measured constant sup_t t^s ||...||,
    bounded within the module's surrogate cap max/min <= 3, not on the
    spread of fitted slopes."""
    rep = est.check_thm34(grid, N, pot, PROF, H_SET[:3], T_SET,
                          s_set=(1.5,))["3.18_s1.5"]
    assert all(f["passed"] for f in rep["fits"].values()), (
        "some h misses the t-slope <= -1.3 requirement")
    _, op = ops
    consts = [_weighted_decay_constant(grid, op, h, 1.5, T_SET)
              for h in H_SET[:3]]
    ratio = max(consts) / min(consts)
    assert ratio <= 3.0, (
        f"sup_t t^1.5 ||weighted propagator|| varies by x{ratio:.2f} "
        f"across h (cap x3): {['%.4g' % c for c in consts]}")


def test_criterion_13_smoothing(grid, pot):
    rep = est.check_smoothing(grid, N, pot, PROF, H_SET[:3])
    time_rep, freq_rep = rep["3.2_time"], rep["3.15_freq"]
    assert time_rep["tails_passed"], (
        f"dyadic time tails {time_rep['dyadic_tail_ratios']} exceed 1/2")
    assert time_rep["passed"], (
        f"normalized totals vary by x{time_rep['ratio']:.2f} (cap x3)")
    assert freq_rep["passed"], (
        f"sup_lambda ||Q|| varies by x{freq_rep['ratio']:.2f} (cap x3)")


def test_criterion_14_mollifier_suite(pot):
    rep = est.mollified_multiplier_suite(RadialGrid(128.0, 1280), N, pot)
    assert rep["3.46_theta_scan"]["passed"], "theta-scan minimum misplaced"
    r41, r43 = rep["3.41"], rep["3.43"]
    # (3.41) and (3.43) are upper bounds for theta -> 0: the slope may
    # exceed its target (faster vanishing, slower blow-up), not fall short
    e41, e43 = r41["fitted_exponent"], r43["fitted_exponent"]
    assert (e41 >= r41["target"] - r41["tolerance"]
            and e43 >= r43["target"] - r43["tolerance"]), (
        f"theta-slopes {e41:.3f} / {e43:.3f} below mu=0.4 / mu-1=-0.6 "
        f"(- 0.15)")


def test_criterion_15_endpoint_decay(thm41_reports):
    rep = thm41_reports
    assert rep["4.6_t"]["passed"], (
        f"(weighted L2->Linf) t-slope {rep['4.6_t']['fitted_exponent']:.3f}"
        f" > -1.3")
    assert rep["4.6_h"]["passed"], (
        f"h-slope {rep['4.6_h']['fitted_exponent']:.3f} not in -1 +/- 0.3")
    assert rep["4.10_h"]["passed"], (
        f"free-kernel h-slope {rep['4.10_h']['fitted_exponent']:.3f} "
        f"not in -3 +/- 0.4")
    assert rep["4.1_p2"]["passed"]      # defers to the item-11 quantity


def test_criterion_16_final_assembly(grid, pot):
    rep = est.assemble_thm11(grid, N, pot)
    ident = rep["4.3_identity"]
    assert ident["passed"], (
        f"frequency-integration identity residual {ident['max_residual']:.2e}")
    assert rep["1.4"]["passed"], (
        f"t-slope {rep['1.4']['fitted_exponent']:.3f} > -1.3")
    assert rep["1.2_p2"]["passed"], (
        f"p=2 slope {rep['1.2_p2']['fitted_exponent']:.3f} not in 0 +/- 0.05")
