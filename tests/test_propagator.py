from math import gamma

import numpy as np
import pytest

from wavedecay import propagator
from wavedecay.cli import main
from wavedecay.freekernel import eval_Kh_sigma_batch
from wavedecay.norms import LowRank
from wavedecay.propagator import (boundary_safe_gap, duhamel_residual,
                                  duhamel_split, time_domain_evolve,
                                  wave_multiplier, wave_via_resolvent,
                                  write_propagator_norms)
from wavedecay.radialop import PotentialSpec, build_G, build_G0
from wavedecay.resolvent import resolvent_difference_vector
from wavedecay.specfun import gauss_panels

N = 4


@pytest.fixture(scope="module")
def ops(small_grid, potential):
    return build_G0(small_grid, N), build_G(small_grid, N, potential)


def _gaussian(grid, center=5.0, width=1.0):
    return np.exp(-((grid.nodes - center) / width) ** 2)


def phi_difference(op0, op, profile, h, t):
    """e^{it sqrt(G)} phi(h sqrt(G)) - e^{it sqrt(G0)} phi(h sqrt(G0)),
    dense: the oracle of the Duhamel split."""
    return (wave_multiplier(op, profile, h, t).matrix
            - wave_multiplier(op0, profile, h, t).matrix)


def test_group_law(ops, profile):
    """U(t1) U(t2) with one profile each equals U(t1+t2) with the squared
    profile."""
    _, op = ops
    a = wave_multiplier(op, profile, 1.0, 1.5).matrix
    b = wave_multiplier(op, profile, 1.0, 2.5).matrix
    both = wave_multiplier(op, profile, 1.0, 4.0, square_profile=True).matrix
    assert np.allclose(a @ b, both, atol=1e-10)


def test_multiplier_at_t0_is_spectral_cutoff(ops, profile):
    _, op = ops
    mat = wave_multiplier(op, profile, 1.0, 0.0).matrix
    assert np.allclose(mat.imag, 0.0, atol=1e-12)
    # phi <= 1 so the cutoff is a contraction on l2
    assert np.linalg.norm(mat, 2) <= 1.0 + 1e-10


def test_time_domain_matches_eigen(ops, profile, small_grid):
    """Leapfrog with Richardson against the eigen route, well before any
    wall reflection matters."""
    _, op = ops
    f = _gaussian(small_grid)
    t = 4.0
    rec = time_domain_evolve(op, f, t, 0.5 * small_grid.dr, profile, 1.0)
    expect = wave_multiplier(op, profile, 1.0, t).matrix @ f
    rel = np.linalg.norm(rec.u - expect) / np.linalg.norm(expect)
    assert rel < 1e-4
    assert rec.energy_drift < 1e-2


def test_time_domain_rejects_bad_step(ops, profile, small_grid):
    _, op = ops
    with pytest.raises(ValueError, match="dt <= dr/2"):
        time_domain_evolve(op, _gaussian(small_grid), 1.0, small_grid.dr,
                           profile, 1.0)


def test_time_domain_rejects_negative_time(ops, profile, small_grid):
    """The leapfrog steps forward only: a negative t_end would give a
    negative step count, skip the loop and return one forward step, for
    this packet 1.97 relative off the eigen route at t_end = -2."""
    _, op = ops
    with pytest.raises(ValueError, match="t_end >= 0"):
        time_domain_evolve(op, _gaussian(small_grid), -2.0,
                           0.5 * small_grid.dr, profile, 1.0)


def test_resolvent_route_matches_eigen(ops, profile, small_grid, potential):
    """Spectral-jump reconstruction vs the eigen route on the
    boundary-safe window."""
    _, op = ops
    t, h = 3.0, 1.0
    eig = wave_multiplier(op, profile, h, t, square_profile=True)
    res = wave_via_resolvent(small_grid, N, potential, profile, h, t)
    gap = boundary_safe_gap(res, eig, small_grid)
    # the profile's smooth tails leak past the window; dr = 0.1 here
    assert gap < 0.08


def _gauss_panel_resolvent(grid, n, potential, profile, h, t, per_period):
    """The spectral-jump matrix by the rule wave_via_resolvent took before
    the trapezoid one: six-point Gauss-Legendre panels, per_period of them
    per period of the phase rate |t| + 2R (1.5 in that rule), at least 4."""
    lo, hi = (edge / h for edge in profile.support)
    rate = abs(t) + 2.0 * grid.R
    panels = max(4, int(np.ceil(per_period * rate * (hi - lo)
                                / (2.0 * np.pi))))
    lams, wts = gauss_panels(np.linspace(lo, hi, panels + 1), 6)
    coeffs = (wts * np.exp(1j * t * lams) * profile(h * lams) ** 2 * lams
              * grid.dr)
    cols = resolvent_difference_vector(grid, n, potential, lams)
    return (cols * coeffs) @ np.conj(cols).T


@pytest.mark.parametrize("h, t", [(1.0, 3.0), (0.5, 0.0), (1.0, -6.0),
                                  (0.25, 10.0)])
def test_resolvent_route_matches_gauss_panels(profile, small_grid, potential,
                                              h, t):
    """The trapezoid lambda rule of wave_via_resolvent against the
    Gauss-panel rule it replaced, entry by entry, relative to the largest
    entry.  On this grid the replaced rule (1.5 panels per period, 54 to
    96 nodes) is itself off by up to 4.3e-9 (h = 1, t = 3) from 12-point
    panels at 6 per period, where the trapezoid rule is off by 1e-15; at
    twice its panel density the two rules agree to 1.4e-12."""
    got = wave_via_resolvent(small_grid, N, potential, profile, h, t).matrix
    for per_period, tol in ((1.5, 1e-8), (3.0, 1e-10)):
        want = _gauss_panel_resolvent(small_grid, N, potential, profile, h,
                                      t, per_period)
        assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))


def test_boundary_safe_gap_guards(ops, profile, small_grid, monkeypatch):
    _, op = ops
    a = wave_multiplier(op, profile, 1.0, 1.0)
    b = wave_multiplier(op, profile, 1.0, 2.0)
    with pytest.raises(ValueError, match="share the time"):
        boundary_safe_gap(a, b, small_grid)
    c = wave_multiplier(op, profile, 1.0, 1.0)
    monkeypatch.setattr(propagator, "_PAD", 2.0 * small_grid.R)
    with pytest.raises(ValueError, match="empty comparison window"):
        boundary_safe_gap(a, c, small_grid)


def test_duhamel_split_reconstructs(ops, profile):
    """phi1 + h phi2 must reproduce the propagator difference."""
    op0, op = ops
    h, t = 0.5, 2.0
    phi1, phi2 = duhamel_split(op0, op, profile, h, t)
    diff = phi_difference(op0, op, profile, h, t)
    got = (phi1 + h * phi2).matrix
    rel = np.linalg.norm(got - diff, 2) / np.linalg.norm(diff, 2)
    assert rel < 1e-3


def _spectral(oper, fn):
    """fn(sqrt(G)) on the positive spectrum of G, zero elsewhere, dense from
    the eigensystem."""
    mu, q = oper.eigensystem()
    vals = np.zeros(mu.shape, dtype=complex)
    vals[mu > 0] = fn(np.sqrt(mu[mu > 0]))
    return (q * vals) @ q.T


@pytest.mark.parametrize("c", [2.0, 0.0], ids=["potential", "free"])
def test_duhamel_stationary_part_matches_dense(small_grid, profile, c):
    """phi1, assembled from band factors, against its three terms as
    dense products of dense spectral functions, to 1e-13 of the largest
    entry of the stationary part or of the propagator (the part vanishes
    without a potential)."""
    op0 = build_G0(small_grid, N)
    op = build_G(small_grid, N, PotentialSpec(c, 3.0))
    h, t = 0.5, 2.0
    phi1 = profile.companion_plateau()
    phi_t, phi1_t = profile.tilt(1), phi1.tilt(-1)

    def diff(prof):
        return (_spectral(op, lambda r: prof(h * r))
                - _spectral(op0, lambda r: prof(h * r)))

    u = _spectral(op, lambda r: profile(h * r) * np.exp(1j * t * r))
    cos_t = _spectral(op0, lambda r: phi1(h * r) * np.cos(t * r))
    sin_t = _spectral(op0, lambda r: phi1_t(h * r) * np.sin(t * r))
    want = (diff(phi1) @ u + cos_t @ diff(profile)
            + 1j * sin_t @ diff(phi_t))
    got = duhamel_split(op0, op, profile, h, t)[0].matrix
    scale = max(np.max(np.abs(want)), np.max(np.abs(u)))
    assert np.max(np.abs(got - want)) <= 1e-13 * scale


def test_duhamel_free_remainder_vanishes(small_grid, profile):
    op0 = build_G0(small_grid, N)
    free_op = build_G(small_grid, N, PotentialSpec(0.0, 3.0))
    phi2 = duhamel_split(op0, free_op, profile, 1.0, 2.0)[1]
    assert np.linalg.norm(phi2.matrix, 2) == 0.0


def test_duhamel_split_grid_guard(small_grid, potential, profile):
    from wavedecay.radialop import RadialGrid

    op = build_G(small_grid, N, potential)
    other = build_G0(RadialGrid(8.0, 79), N)
    with pytest.raises(ValueError, match="share one grid"):
        duhamel_split(other, op, profile, 1.0, 1.0)


def free_sector_kernel_column(grid, n, profile, h, t, col):
    """Sector projection of the full-space free kernel.

    The angular average int_{S^{n-1}} K_h(|r e1 - r' w|, t) dw reduces to a
    1-D theta integral against sin^{n-2} (64-point Gauss on [0, pi]);
    multiplying by (r r')^{(n-1)/2} gives the continuum sector kernel,
    comparable to an eigen-route column divided by dr.  Returns (row
    indices, values) on every fourth row.
    """
    rp = grid.nodes[col]
    rows = np.arange(0, grid.M, 4)
    theta, tw = gauss_panels([0.0, np.pi], 64)
    r = grid.nodes[rows]
    dists = np.sqrt(r[:, None] ** 2 + rp ** 2
                    - 2.0 * r[:, None] * rp * np.cos(theta)[None, :])
    vals = eval_Kh_sigma_batch(n, profile, h, dists, t).reshape(dists.shape)
    sphere = 2.0 * np.pi ** ((n - 1) / 2.0) / gamma((n - 1) / 2.0)
    angular = sphere * (vals * (np.sin(theta) ** (n - 2) * tw)[None, :]).sum(1)
    return rows, (r * rp) ** ((n - 1) / 2.0) * angular


def test_free_kernel_column_matches_eigen(small_grid, profile):
    """Angular average of the full-space free kernel against a column of
    the free eigen-route multiplier."""
    op0 = build_G0(small_grid, N)
    h, t, col = 1.0, 2.0, 49
    rows, vals = free_sector_kernel_column(small_grid, N, profile, h, t, col)
    mat = wave_multiplier(op0, profile, h, t).matrix
    eig_col = mat[rows, col] / small_grid.dr
    keep = small_grid.nodes[rows] <= small_grid.R - t - 5.0
    num = np.linalg.norm(vals[keep] - eig_col[keep])
    assert num / np.linalg.norm(eig_col[keep]) < 0.05


def test_write_propagator_norms(tmp_path, ops, profile):
    _, op = ops
    recs = [wave_multiplier(op, profile, 1.0, t) for t in (1.0, 2.0)]
    path = write_propagator_norms(tmp_path / "norms.csv", recs)
    lines = open(path).read().strip().splitlines()
    assert lines[0] == "t,h,norm_kind,value,method"
    assert len(lines) == 3
    assert all("eigen" in ln for ln in lines[1:])


def _records(op, potential, profile, grid, h, t):
    """The two kinds of record at (t, h): the eigen route's real band and
    the resolvent route's complex jump vectors."""
    return (wave_multiplier(op, profile, h, t, square_profile=True),
            wave_via_resolvent(grid, N, potential, profile, h, t))


def test_record_matrix_is_the_dense_band(ops, profile):
    """The eigen record assembles the band's dense form bit for bit, the
    array the benchmark's leapfrog oracle reads."""
    _, op = ops
    band = op.band(profile, 1.0)
    rec = wave_multiplier(op, profile, 1.0, 2.5)
    want = (band.vecs * band.coeff(2.5)[None, :]) @ band.vecs.T
    assert np.array_equal(rec.matrix, want)


@pytest.mark.parametrize("h, t", [(1.0, 3.0), (1.0, 0.0), (0.5, -2.0)])
def test_factor_gap_matches_dense_window(ops, profile, small_grid,
                                         potential, h, t):
    """boundary_safe_gap from the stacked window rows of the factors
    against LAPACK's 2-norm of the dense window, with either kind of
    record in the denominator, to 1e-12 relative."""
    _, op = ops
    eig, res = _records(op, potential, profile, small_grid, h, t)
    keep = small_grid.nodes <= small_grid.R - abs(t) - propagator._PAD
    sub = np.ix_(keep, keep)
    for a, b in ((res, eig), (eig, res)):
        want = (np.linalg.norm(a.matrix[sub] - b.matrix[sub], 2)
                / np.linalg.norm(b.matrix[sub], 2))
        assert boundary_safe_gap(a, b, small_grid) == pytest.approx(
            want, rel=1e-12, abs=0.0)


def test_factor_norms_match_dense(tmp_path, ops, profile, small_grid,
                                  potential):
    """write_propagator_norms' band norms of the factors against LAPACK's
    2-norm of each record's matrix, both kinds, to 1e-12 relative."""
    _, op = ops
    recs = [*_records(op, potential, profile, small_grid, 1.0, 3.0),
            wave_multiplier(op, profile, 0.5, -2.0)]
    path = write_propagator_norms(tmp_path / "norms.csv", recs)
    rows = open(path).read().strip().splitlines()[1:]
    for row, rec in zip(rows, recs):
        assert float(row.split(",")[3]) == pytest.approx(
            np.linalg.norm(rec.matrix, 2), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("h, t", [(0.5, 2.0), (0.5, 4.0), (1.0, 3.0),
                                  (0.25, 1.0)])
def test_duhamel_residual_matches_dense(ops, profile, h, t):
    """The residual from band norms of the stacked factors against LAPACK's
    2-norm of the dense phi1 + h phi2 - phi_difference, to 1e-11
    relative: the numerator cancels to 4e-4 to 2e-3 of the terms."""
    op0, op = ops
    phi1, phi2 = duhamel_split(op0, op, profile, h, t)
    diff = phi_difference(op0, op, profile, h, t)
    want = (np.linalg.norm((phi1 + h * phi2).matrix - diff, 2)
            / np.linalg.norm(diff, 2))
    assert duhamel_residual(op0, op, profile, h, t) == pytest.approx(
        want, rel=1e-11, abs=0.0)


def test_propagator_command_reads_only_factors(tmp_path, monkeypatch,
                                               capsys):
    """The propagator command on the tests' grid with the one dense
    assembly of a factored operator, LowRank.matrix, raising."""
    def dense(*args, **kwargs):
        raise AssertionError("dense propagator read")

    monkeypatch.setattr(LowRank, "matrix", property(dense))
    ini = tmp_path / "exp.ini"
    ini.write_text("[grid]\nR = 16\nM = 159\n")
    out = tmp_path / "out"
    assert main(["propagator", "--config", str(ini), "--out",
                 str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("eigen vs resolvent windowed gap")
    assert lines[1].startswith("duhamel residual")
    rows = (out / "propagator_norms.csv").read_text().splitlines()
    assert [row.split(",")[-1] for row in rows[1:]] == [
        "eigen", "resolvent_formula"]
