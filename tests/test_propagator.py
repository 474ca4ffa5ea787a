import numpy as np
import pytest

from wavedecay.propagator import (boundary_safe_gap, duhamel_split,
                                  free_sector_kernel_column, phi_difference,
                                  time_domain_evolve, wave_multiplier,
                                  wave_via_resolvent, write_propagator_norms)
from wavedecay.radialop import PotentialSpec, build_G, build_G0

N = 4


@pytest.fixture(scope="module")
def ops(small_grid, potential):
    return build_G0(small_grid, N), build_G(small_grid, N, potential)


def _gaussian(grid, center=5.0, width=1.0):
    return np.exp(-((grid.nodes - center) / width) ** 2)


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


def test_resolvent_route_matches_eigen(ops, profile, small_grid, potential):
    """Spectral-jump reconstruction vs the eigen route on the
    boundary-safe window."""
    _, op = ops
    t, h = 3.0, 1.0
    eig = wave_multiplier(op, profile, h, t, square_profile=True)
    res = wave_via_resolvent(small_grid, N, potential, profile, h, t)
    gap = boundary_safe_gap(res, eig, small_grid, pad=5.0)
    # the profile's smooth tails leak past the window; dr = 0.1 here
    assert gap < 0.08


def test_boundary_safe_gap_guards(ops, profile, small_grid):
    _, op = ops
    a = wave_multiplier(op, profile, 1.0, 1.0)
    b = wave_multiplier(op, profile, 1.0, 2.0)
    with pytest.raises(ValueError):
        boundary_safe_gap(a, b, small_grid)
    c = wave_multiplier(op, profile, 1.0, 1.0)
    with pytest.raises(ValueError):
        boundary_safe_gap(a, c, small_grid, pad=2.0 * small_grid.R)


def test_duhamel_split_reconstructs(ops, profile):
    """phi1_part + h phi2_part must reproduce the propagator difference."""
    op0, op = ops
    h, t = 0.5, 2.0
    split = duhamel_split(op0, op, profile, h, t)
    diff = phi_difference(op0, op, profile, h, t)
    got = split.phi1_part + h * split.phi2_part
    rel = np.linalg.norm(got - diff, 2) / np.linalg.norm(diff, 2)
    assert rel < 1e-3
    assert split.quadrature["rule"] == "simpson"


def test_duhamel_free_remainder_vanishes(small_grid, profile):
    op0 = build_G0(small_grid, N)
    free_op = build_G(small_grid, N, PotentialSpec(0.0, 3.0))
    split = duhamel_split(op0, free_op, profile, 1.0, 2.0)
    assert np.linalg.norm(split.phi2_part, 2) == 0.0


def test_phi_difference_grid_guard(small_grid, potential, profile):
    from wavedecay.radialop import RadialGrid

    op = build_G(small_grid, N, potential)
    other = build_G0(RadialGrid(8.0, 79), N)
    with pytest.raises(ValueError):
        phi_difference(other, op, profile, 1.0, 1.0)


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
