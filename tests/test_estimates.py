import numpy as np
import pytest

from wavedecay import estimates as est
from wavedecay.fitting import _stability, fit_power_law
from wavedecay.norms import LowRank, band_norm_2
from wavedecay.profiles import bump, mollifier, plateau, step_cutoff
from wavedecay.radialop import (PotentialSpec, RadialGrid, build_G, build_G0,
                               weight_matrix)
from wavedecay.specfun import gauss_panels


def test_stability_and_ratio_report():
    assert _stability([1.0, 4.0, 2.0]) == 4.0
    assert _stability([0.0, 0.0]) == 0.0
    rep = est._ratio_report([1.0, 2.5])
    assert rep["passed"] and rep["ratio"] == 2.5 and rep["cap"] == 3.0
    assert not est._ratio_report([1.0, 4.0])["passed"]


def test_cone_sup_tracks_stated_rate(profile):
    # |K| on the cone decays like t^{-(n-1)/2} once the window transient
    # has died out
    a = est.cone_sup(4, profile, 1.0, 64.0)
    b = est.cone_sup(4, profile, 1.0, 128.0)
    assert b / a == pytest.approx(2.0 ** -1.5, rel=0.05)


def test_prop21_reads_the_cone_windows_of_27(monkeypatch, small_grid,
                                             profile):
    """(2.2) is the sup over the light-cone windows that (2.7) formed:
    after check_kernel_bounds, check_prop21 forms no window, and its fits
    equal (2.7)'s at weight power 0 field by field."""
    h_set = (1.0, 0.5, 0.25, 0.125)
    calls = []
    batch = est.eval_Kh_sigma_batch

    def counted(*args):
        calls.append(args)
        return batch(*args)

    est._cone_window.cache_clear()
    monkeypatch.setattr(est, "eval_Kh_sigma_batch", counted)
    kernel = est.check_kernel_bounds(4, profile, h_set)
    formed = len(calls)
    prop = est.check_prop21(small_grid, 4, profile, h_set,
                            (1.0, 2.0, 4.0, 8.0))
    assert len(calls) == formed
    for key, twin in (("2.2_t", "2.7_t_s1.5"), ("2.2_h", "2.7_h")):
        assert prop[key]["estimate_id"] == "2.2"
        assert {**prop[key], "estimate_id": "2.7"} == kernel[twin]


def test_h_scan_takes_its_h1_row_from_the_t_scan(monkeypatch, small_grid,
                                                 profile):
    """2.3_h's h = 1 row (t = 16) is read from the h = 1 scan over the
    t-set and t = 16, here a t-set without 16: one band_norm_2_to_inf call
    per h, the first with a row per t, and the report is the fit of one
    call per h at t = 16, the separate h = 1 call it replaces."""
    h_set = (1.0, 0.5, 0.25, 0.125)
    norm, calls = est.band_norm_2_to_inf, []

    def counted(left, right, coeffs, grid, n):
        calls.append(len(coeffs))
        return norm(left, right, coeffs, grid, n)

    monkeypatch.setattr(est, "band_norm_2_to_inf", counted)
    rep = est.check_prop21(small_grid, 4, profile, h_set,
                           (1.0, 2.0, 4.0, 8.0))
    assert calls == [5, 1, 1, 1]
    op0, w = build_G0(small_grid, 4), weight_matrix(small_grid,
                                                    2.0 + est.EPS)
    rows = []
    for h in h_set:
        band = op0.band(profile, h)
        rows.append((h, norm(band.vecs, w[:, None] * band.vecs,
                             band.coeff([16.0]), small_grid, 4)[0]))
    want = fit_power_law(rows, "2.3", "h", target=-2.5, tolerance=0.3)
    assert rep["2.3_h"] == {**want.as_dict(), "note": est.SECTOR_NOTE}


def test_kernel_t_window():
    assert est.KERNEL_T[0] == 8.0
    assert est.KERNEL_T[-1] == 128.0
    assert len(est.KERNEL_T) == 9


def test_free_kernel_sup_cone_restriction(profile):
    full = est._free_kernel_sup(4, profile, 1.0, 8.0)
    cone = est._free_kernel_sup(4, profile, 1.0, 8.0, cone_only=True)
    assert 0.0 < cone <= full * (1 + 1e-12)


def test_rollup_rows_flatten():
    reports = {
        "2.7": {"t": {"fitted_exponent": -1.5, "target": -1.5,
                      "tolerance": 0.2, "variable": "t", "passed": True},
                "_meta": {"fitted_exponent": 0.0, "passed": False}},
        "3.2": {"ratio": 1.1, "cap": 3.0, "passed": True},
        "_notes": {"passed": False},
    }
    rows = est.rollup_rows(reports)
    keys = sorted(r[0] for r in rows)
    assert keys == ["2.7.t", "3.2"]
    fit_row = next(r for r in rows if r[0] == "2.7.t")
    assert fit_row[1:] == ["t", -1.5, -1.5, 0.2, True]
    ratio_row = next(r for r in rows if r[0] == "3.2")
    assert ratio_row[2] == 3.0 and ratio_row[3] == 1.1 and ratio_row[5]


def test_emit_reports_round_trip(tmp_path):
    import json

    reports = {"9.1": {"fitted_exponent": -1.0, "passed": True,
                       "window": [1.0, 8.0]},
               "_skip": {"x": 1}}
    written = est.emit_reports(reports, str(tmp_path))
    names = sorted(p.split("/")[-1] for p in written)
    assert names == ["estimate_9_1.json", "rollup.csv"]
    back = json.loads((tmp_path / "estimate_9_1.json").read_text())
    assert back["fitted_exponent"] == -1.0
    assert not (tmp_path / "estimate__skip.json").exists()


def test_time_side_values_match_per_t_loop(small_grid, potential, profile):
    """The batched time-side values against the plain loop over t of
    Re <w P(t) f, w P(t) f> summed over the test vectors."""
    op = build_G(small_grid, 4, potential)
    w = weight_matrix(small_grid, 1.55)
    tests = est._gaussian_tests(small_grid)
    t_arr = np.arange(0.25, 16.0, 0.25)
    vals, mass = est._time_side_values(op, profile, 1.0, w, 0.75, tests,
                                       t_arr)
    band = op.band(profile, 1.0)
    wb = w[:, None] * band.vecs
    b = band.amps[:, None] * (band.vecs.T @ tests)
    want = np.empty(t_arr.size)
    for i, t in enumerate(t_arr):
        ph = np.exp(1j * t * band.roots)[:, None] * b
        want[i] = np.real(np.sum(np.conj(ph) * (wb.T @ wb @ ph)))
    assert np.allclose(vals, want * t_arr ** 1.5, rtol=1e-12, atol=0.0)
    assert mass == np.sum(b ** 2)


def _one_shot_time_side(op, profile, h, w, s, test_vectors, t_arr):
    """_time_side_values' sums of squares as one (M x 2 T J) product."""
    band = op.band(profile, h)
    proj = band.vecs.T @ test_vectors
    ph = (band.coeff(t_arr).T[:, :, None] * proj[:, None, :]).reshape(
        len(band.roots), -1)
    parts = np.concatenate([ph.real, ph.imag], axis=1)
    vals = np.sum(((w[:, None] * band.vecs) @ parts) ** 2, axis=0)
    return vals.reshape(2, t_arr.size, -1).sum(axis=(0, 2)) * t_arr ** (2 * s)


_TB = est._T_BLOCK


@pytest.mark.parametrize("size", [1, _TB - 1, _TB, _TB + 1, 2 * _TB,
                                  2 * _TB + 1])
@pytest.mark.parametrize("cols", [1, 3])
def test_time_side_values_match_one_shot(small_grid, potential, profile,
                                         size, cols):
    """Across the time-block edge, for one and three test vectors: bit
    for bit when every block is full, else (a last block of one time, a
    product of 2 J columns that BLAS rounds its own way) to 1e-14."""
    op = build_G(small_grid, 4, potential)
    w = weight_matrix(small_grid, 1.55)
    tests = est._gaussian_tests(small_grid)[:, :cols]
    t_arr = np.arange(1, size + 1) * 0.25
    vals, _ = est._time_side_values(op, profile, 0.5, w, 0.75, tests, t_arr)
    want = _one_shot_time_side(op, profile, 0.5, w, 0.75, tests, t_arr)
    if size <= _TB or size % _TB == 0:
        assert np.array_equal(vals, want)
    assert np.allclose(vals, want, rtol=1e-14, atol=0.0)


def test_time_side_working_set_is_one_block(traced_peak):
    """Report 3.20's 512 times of three test vectors at the benchmark
    scale: the one-shot (512 x 3,072) product alone is 12.6 MB; the
    time-blocked sums peak under half of it."""
    grid = RadialGrid(64.0, 512)
    op = build_G(grid, 4, PotentialSpec(2.0, 3.0))
    w = weight_matrix(grid, 2.0)
    tests = est._gaussian_tests(grid)
    t_arr = est._times(0.125)
    product_bytes = grid.M * 2 * t_arr.size * tests.shape[1] * 8
    op.band(bump(), 1.0)   # the eigensystem, outside the trace
    peak = traced_peak(lambda: est._time_side_values(
        op, bump(), 1.0, w, 1.5, tests, t_arr))
    assert peak < product_bytes / 2


def test_thm11_p2_is_the_largest_coefficient(small_grid, potential):
    """1.2 at p = 2 reads ||V diag(c) V^T||_2 as max |c|: held to the
    stacked band_norm_2 and the dense spectral norm."""
    op = build_G(small_grid, 4, potential)
    band = op.band(plateau(1.0, 8.0), 1.0)
    ts = (4.0, 8.0, 16.0, 32.0, 64.0)
    coeffs = band.coeff(ts)
    short = np.max(np.abs(coeffs), axis=1)
    assert np.allclose(short, band_norm_2(band.vecs, band.vecs, coeffs),
                       rtol=1e-12, atol=0.0)
    assert np.allclose(short, [np.linalg.norm(
        LowRank(band.vecs, c, band.vecs).matrix, 2) for c in coeffs],
                       rtol=1e-12, atol=0.0)
    rep = est.assemble_thm11(small_grid, 4, potential, t_set=ts)
    assert rep["1.2_p2"]["fitted_constant"] == pytest.approx(short[0],
                                                             rel=1e-12)


@pytest.mark.parametrize("tilt", [0.0, -2.5, -3.0])
def test_thm11_band_is_the_rolled_off_cutoff(small_grid, potential, tilt):
    """The 1.2 band chi_1(sqrt G) (1 - chi_8(sqrt G)) sqrt(G)^tilt keeps no
    zero-amplitude column, lies in (1, 16), and matches, bit for bit on
    the columns both keep, the construction that tilted the step cutoff's
    band, dropped amplitudes below 1e-7 of the largest and multiplied the
    roll-off in afterwards."""
    op = build_G(small_grid, 4, potential)
    band = op.band(plateau(1.0, 8.0).tilt(tilt), 1.0)
    assert np.all(band.amps != 0)
    assert band.roots.min() > 1.0 and band.roots.max() < 16.0

    mu, q = op.eigensystem()
    root, vecs = np.sqrt(mu[mu > 0]), q[:, mu > 0]
    amp = step_cutoff(1.0)(root)
    if tilt != 0.0:
        amp = amp * root ** tilt
    keep = np.abs(amp) > 1e-7 * np.max(np.abs(amp))
    old_amps = amp[keep] * (1.0 - step_cutoff(8.0)(root[keep]))
    old_roots, old_vecs = root[keep], vecs[:, keep]
    assert np.any(old_amps == 0)    # the zero columns the new band drops
    _, new_i, old_i = np.intersect1d(band.roots, old_roots,
                                     assume_unique=True, return_indices=True)
    assert np.array_equal(band.amps[new_i], old_amps[old_i])
    assert np.array_equal(band.vecs[:, new_i], old_vecs[:, old_i])
    # a column leaves only where the old amplitude was exactly 0
    assert np.all(np.isin(old_roots[old_amps != 0], band.roots))


def test_smoothing_normalizes_by_band_mass(small_grid, profile):
    """Totals are reported per unit of band energy, with the raw totals
    kept alongside."""
    pot = PotentialSpec(2.0, 3.0)
    rep = est.check_smoothing(small_grid, 4, pot, profile, (1.0, 0.5))
    entry = rep["3.2_time"]
    assert "totals_per_band_mass" in entry and "raw_totals" in entry
    assert set(entry["totals_per_band_mass"]) == {"1", "0.5"}
    assert "passed" in entry


@pytest.fixture(scope="module")
def lattice(small_grid, potential):
    return est._LatticeFamily(small_grid, 4, potential, 1.4, 1.0, 1.1,
                              1.0 / 64.0, r_cut=16.0)


def test_lattice_rejects_lambda_outside(lattice):
    fam = lattice
    rows = fam.weights(1, [1.05])
    assert rows.shape == (1, len(fam.lams))
    assert np.count_nonzero(rows) == 4
    last = fam.weights(0, fam.lams[-1]) @ fam.mats.reshape(len(fam.lams), -1)
    assert np.allclose(last.reshape(fam.mats.shape[1:]), fam.mats[-1])
    for lam in (fam.lams[0] - 1e-3, fam.lams[-1] + 1e-3):
        with pytest.raises(ValueError, match="outside the lattice"):
            fam.weights(0, [1.05, lam])
    with pytest.raises(ValueError, match="order <= 2"):
        fam.weights(3, [1.05])


@pytest.mark.parametrize("order", [0, 1, 2])
def test_shifted_weights_are_the_per_shift_sum(lattice, order):
    """The one-bincount rows of a Gauss shift sum against the shift by
    shift sum of weight rows they replace, bit for bit; a shift that leaves
    the lattice raises."""
    fam = lattice
    lams = np.array([1.02, 1.03125, 1.05, 1.07])
    sig, wts = gauss_panels([0.01, 0.015], 16)
    want = sum(w * fam.weights(order, lams + s) for s, w in zip(sig, wts))
    assert np.array_equal(fam.shifted_weights(order, lams, sig, wts), want)
    with pytest.raises(ValueError, match="outside the lattice"):
        fam.shifted_weights(order, lams, sig + 0.03, wts)


def test_lattice_weights_reproduce_a_cubic(lattice):
    """Cubic Lagrange rows are exact on cubics: value, first and second
    derivative at off-node lambda, the clamped end intervals included."""
    fam = lattice
    # centred on the lattice, so the values, whose round-off the rows
    # amplify by 1/step^order, stay small next to the derivatives
    coef, mid = np.array([3.0, 2.0, -1.0, 0.01]), 1.05
    lams = np.concatenate([fam.lams[:-1] + 0.3 * fam.step,
                           [fam.lams[-1] - 0.1 * fam.step]])
    for order in (0, 1, 2):
        got = fam.weights(order, lams) @ np.polyval(coef, fam.lams - mid)
        want = np.polyval(np.polyder(coef, order), lams - mid)
        assert np.allclose(got, want, rtol=1e-12, atol=0.0), order


def _loop_deriv(fam, order, lam):
    """Per-lambda cubic Lagrange derivative, one lattice window at a time:
    the loop form the weight rows replace."""
    x = (lam - fam.lo) / fam.step
    j = min(max(int(np.floor(x)), 1), len(fam.mats) - 3)
    u = x - j
    w = {0: (-u * (u - 1) * (u - 2) / 6.0, (u + 1) * (u - 1) * (u - 2) / 2.0,
             -(u + 1) * u * (u - 2) / 2.0, (u + 1) * u * (u - 1) / 6.0),
         1: (-(3 * u * u - 6 * u + 2) / 6.0, (3 * u * u - 4 * u - 1) / 2.0,
             -(3 * u * u - 2 * u - 2) / 2.0, (3 * u * u - 1) / 6.0),
         2: (1.0 - u, 3.0 * u - 2.0, 1.0 - 3.0 * u, u)}[order]
    out = sum(wk * fam.mats[j - 1 + k] for k, wk in enumerate(w))
    return out / fam.step ** order


def _loop_mollified(fam, order, theta, lam):
    sig, wts = gauss_panels([theta / 3.0, theta / 2.0], 16)
    wts = wts * mollifier()(sig / theta) / theta
    acc = sum(w_ * _loop_deriv(fam, order, lam + s_)
              for s_, w_ in zip(sig, wts))
    return acc / np.sum(wts)


def _loop_suite(fam, theta_set, t_scan, t_fit, lam_sample, profile):
    """Loop-form oracle of every figure the suite reports: per-lambda Gauss
    sums for the mollified family, per-lambda trapezoid/phase sums for the
    reconstruction."""
    def tplus_norm(mat):
        return np.linalg.norm(mat / (np.pi * 1j), 2)

    def tjump(mat):
        return (2.0 / np.pi) * np.imag(mat)

    out = {"sups": [], "3.41": [], "3.43": []}
    for th in theta_set:
        out["sups"].append(max(
            tplus_norm(_loop_mollified(fam, j, th, lam))
            for j in (0, 1) for lam in lam_sample))
        out["3.41"].append(max(
            tplus_norm(_loop_mollified(fam, 1, th, lam)
                       - _loop_deriv(fam, 1, lam)) for lam in lam_sample))
        out["3.43"].append(max(
            tplus_norm(_loop_mollified(fam, 2, th, lam))
            for lam in lam_sample))
    lo, hi = profile.support
    base = fam.lams[(fam.lams >= lo) & (fam.lams <= hi)]
    quad = fam.step * profile(base)

    def recon(t, theta=None):
        a = b = 0.0
        for lam, w_ in zip(base, quad):
            pha = w_ * np.exp(1j * t * lam)
            raw = tjump(_loop_deriv(fam, 0, lam))
            smooth = raw if theta is None else tjump(
                _loop_mollified(fam, 0, theta, lam))
            a, b = a + pha * (raw - smooth), b + pha * smooth
        return np.linalg.norm(a, 2) + np.linalg.norm(b, 2)

    out["3.46_t"] = [recon(t) for t in t_fit]
    out["scan"] = {t: [recon(t, 2.0 ** -k) for k in range(1, 7)]
                   + [recon(t, 1.0 / t)] for t in t_scan}
    return out


def test_mollifier_lattice_covers_theta_scan(small_grid, potential, profile,
                                            monkeypatch):
    """Every figure of the one-contraction suite holds to the per-lambda
    loop form at 1e-10.  The theta-scan and theta = 1/t reach past
    max(_THETAS)/2; the lattice must cover them rather than clamp."""
    built = []

    class Recorded(est._LatticeFamily):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(est, "_LatticeFamily", Recorded)
    thetas = (0.125, 0.0625, 0.03125, 0.015625)
    monkeypatch.setattr(est, "_THETAS", thetas)
    rep = est.mollified_multiplier_suite(small_grid, 4, potential)
    want = _loop_suite(built[0], thetas, est._T_SCAN, est._T_FIT,
                       est._LAM_SAMPLE, profile)

    def close(got, ref):
        assert np.allclose(got, ref, rtol=1e-10, atol=0.0)

    close([rep["3.40"]["sups"][f"{th:g}"] for th in thetas], want["sups"])
    for key in ("3.41", "3.43"):
        fit = fit_power_law(zip(thetas, want[key]))
        close(rep[key]["fitted_exponent"], fit.fitted_exponent)
        close(rep[key]["fitted_constant"], fit.fitted_constant)
    fit = fit_power_law(zip(est._T_FIT, want["3.46_t"]))
    close(rep["3.46_t"]["fitted_exponent"], fit.fitted_exponent)
    close(rep["3.46_t"]["fitted_constant"], fit.fitted_constant)
    for t in est._T_SCAN:
        got = rep["3.46_theta_scan"][f"t{t:g}"]
        assert set(got["scan"]) == {f"{2.0 ** -k:g}" for k in range(1, 7)}
        close([got["scan"][f"{2.0 ** -k:g}"] for k in range(1, 7)]
              + [got["at_theta_1_over_t"]], want["scan"][t])


@pytest.mark.parametrize("h", [1.0, 0.5, 0.25, 0.125])
def test_time_side_values_direct_on_delta_data(h):
    """Each time-side value of report 2.4's delta data at the benchmark
    scale against ||w P(t) f||^2 summed directly at that t, to 1e-13 of
    the value: the Gram form cancels once P(t) f has left the weight
    window, by up to 4e-10 relative at late t."""
    grid, s = RadialGrid(64.0, 512), 1.5
    op0 = build_G0(grid, 4)
    w = weight_matrix(grid, 0.5 + s + est.EPS)
    delta = np.eye(grid.M)[:, [int(round(6.0 / grid.dr))]]
    t_arr = np.arange(0.25, 64.125, 0.25)
    vals, _ = est._time_side_values(op0, bump(), h, w, s, delta, t_arr)
    band = op0.band(bump(), h)
    wb = w[:, None] * band.vecs
    b = band.amps * (band.vecs.T @ delta[:, 0])
    for t, got in zip(t_arr, vals):
        want = np.sum(np.abs(wb @ (np.exp(1j * t * band.roots) * b)) ** 2)
        assert got == pytest.approx(want * t ** (2 * s), rel=1e-13, abs=0.0)
