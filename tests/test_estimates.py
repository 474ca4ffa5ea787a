import numpy as np
import pytest

from wavedecay import estimates as est
from wavedecay.fitting import _stability
from wavedecay.radialop import PotentialSpec


def test_stability_and_ratio_report():
    assert _stability([1.0, 4.0, 2.0]) == 4.0
    assert _stability([0.0, 0.0]) == 0.0
    rep = est._ratio_report([1.0, 2.5], cap=3.0, note="x")
    assert rep["passed"] and rep["ratio"] == 2.5 and rep["note"] == "x"
    assert not est._ratio_report([1.0, 4.0], cap=3.0)["passed"]


def test_cone_sup_tracks_stated_rate(profile):
    # |K| on the cone decays like t^{-(n-1)/2} once the window transient
    # has died out
    a = est.cone_sup(4, profile, 1.0, 64.0)
    b = est.cone_sup(4, profile, 1.0, 128.0)
    assert b / a == pytest.approx(2.0 ** -1.5, rel=0.05)


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


def test_smoothing_normalizes_by_band_mass(small_grid, profile):
    """Totals are reported per unit of band energy, with the raw totals
    kept alongside."""
    pot = PotentialSpec(2.0, 3.0)
    rep = est.check_smoothing(small_grid, 4, pot, profile, (1.0, 0.5))
    entry = rep["3.2_time"]
    assert "totals_per_band_mass" in entry and "raw_totals" in entry
    assert set(entry["totals_per_band_mass"]) == {"1", "0.5"}
    assert "passed" in entry


def test_lattice_rejects_lambda_outside(small_grid, potential):
    fam = est._LatticeFamily(small_grid, 4, potential, 1.4, 1.0, 1.1,
                             1.0 / 64.0, r_cut=16.0)
    inside = fam.deriv(1, 1.05)
    assert inside.shape == (fam.frame.shape[1],) * 2
    assert np.allclose(fam.value(fam.lams[-1]), fam.mats[-1])
    for lam in (fam.lams[0] - 1e-3, fam.lams[-1] + 1e-3):
        with pytest.raises(ValueError):
            fam.deriv(0, lam)


def test_mollifier_lattice_covers_theta_scan(small_grid, potential):
    """The theta-scan and theta = 1/t reach past max(theta_set)/2; the
    lattice must cover them rather than clamp."""
    rep = est.mollified_multiplier_suite(
        small_grid, 4, potential,
        theta_set=(0.125, 0.0625, 0.03125, 0.015625))
    for t in (8.0, 32.0):
        scan = rep["3.46_theta_scan"][f"t{t:g}"]["scan"]
        assert set(scan) == {f"{2.0 ** -k:g}" for k in range(1, 7)}
        assert all(np.isfinite(v) for v in scan.values())
