from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from wavedecay import radialop
from wavedecay.norms import LowRank
from wavedecay.radialop import (PotentialSpec, RadialGrid, build_G, build_G0,
                                top_eigenpair, weight_matrix)


def test_grid_nodes_and_spacing():
    g = RadialGrid(10.0, 99)
    assert g.dr == pytest.approx(0.1)
    assert g.nodes[0] == pytest.approx(0.1)
    assert g.nodes[-1] == pytest.approx(9.9)
    assert len(g.nodes) == 99


def test_grid_validation():
    with pytest.raises(ValueError):
        RadialGrid(-1.0, 100)
    with pytest.raises(ValueError):
        RadialGrid(10.0, 1)


def test_potential_decay_constraint():
    PotentialSpec(1.0, 2.6, n=4)
    with pytest.raises(ValueError):
        PotentialSpec(1.0, 2.5, n=4)   # needs delta > (n+1)/2
    with pytest.raises(ValueError):
        PotentialSpec(-1.0, 3.0)


def test_potential_of_another_dimension_raises(small_grid):
    """PotentialSpec(2.0, 3.0) is checked against n = 4 (delta > 5/2), so
    it is no potential of n = 6 (delta > 7/2)."""
    with pytest.raises(ValueError, match="n = 4 used at n = 6"):
        build_G(small_grid, 6, PotentialSpec(2.0, 3.0))
    build_G(small_grid, 6, PotentialSpec(2.0, 4.0, 6))


def test_potential_values():
    pot = PotentialSpec(2.0, 3.0)
    r = np.array([0.0, 1.0, 3.0])
    expect = 2.0 * (1.0 + r ** 2) ** -1.5
    assert np.allclose(pot(r), expect)


def test_operator_matches_dense_eigh(small_grid, dense_operator):
    """The tridiagonal eigensystem must agree with a dense solve."""
    op = build_G0(small_grid, 4)
    vals, vecs = op.eigensystem()
    dvals, dvecs = np.linalg.eigh(dense_operator(op))
    assert np.allclose(vals, dvals, rtol=1e-10, atol=1e-8)
    # eigenvectors up to sign, checked through the projector
    k = 5
    p1 = vecs[:, :k] @ vecs[:, :k].T
    p2 = dvecs[:, :k] @ dvecs[:, :k].T
    assert np.linalg.norm(p1 - p2, 2) < 1e-8


def test_eigenvectors_complete(small_grid, potential):
    """The eigenvectors resolve the identity, so a spectral multiplier
    built from them misses no part of the space."""
    _, vecs = build_G(small_grid, 4, potential).eigensystem()
    assert np.allclose(vecs @ vecs.T, np.eye(small_grid.M), atol=1e-12)


def test_band_floor_and_tilt(small_grid, potential, profile):
    op = build_G(small_grid, 4, potential)
    band = op.band(profile, 1.0)
    root, amp = band.roots, band.amps
    assert root.shape == amp.shape == (band.vecs.shape[1],)
    # support [1, 2] of the profile restricts the kept frequencies
    assert root.min() >= 1.0 - 1e-9 and root.max() <= 2.0 + 1e-9
    # the band keeps exactly the eigenpairs where the amplitude is nonzero
    mu = op.eigensystem()[0]
    every = np.sqrt(mu[mu > 0])
    assert np.all(amp != 0)
    assert root.size == np.count_nonzero(profile(every))
    # a tilt is a profile operation: sigma^q multiplies the amplitudes
    tilted = op.band(profile.tilt(1.0), 1.0)
    assert np.array_equal(tilted.roots, root)
    assert np.allclose(tilted.amps, amp * root)


def test_band_difference_is_dense_difference(small_grid, potential,
                                              profile):
    op0, op = build_G0(small_grid, 4), build_G(small_grid, 4, potential)
    b, b0 = op.band(profile, 0.5), op0.band(profile, 0.5)
    diff = b - b0
    assert diff.roots.size == b.roots.size + b0.roots.size

    def dense(band, c):
        return LowRank(band.vecs, c, band.vecs).matrix

    want = dense(b, b.coeff(3.0)) - dense(b0, b0.coeff(3.0))
    assert np.allclose(dense(diff, diff.coeff(3.0)), want, atol=1e-13)
    assert dense(diff, diff.amps).dtype == np.float64


def test_band_coeff_stacks_scalar_calls(small_grid, potential, profile):
    band = build_G(small_grid, 4, potential).band(profile, 0.5)
    ts = np.array([0.0, 0.25, 3.0, 17.5, 64.0, -2.0])
    stack = band.coeff(ts)
    assert stack.shape == (ts.size, band.roots.size)
    assert np.array_equal(stack, np.stack([band.coeff(t) for t in ts]))
    assert band.coeff(3.0).shape == band.roots.shape
    assert np.array_equal(band.coeff((3.0,)), band.coeff(3.0)[None])


def test_apply_matches_matrix(small_grid, rng, dense_operator):
    op = build_G(small_grid, 4, PotentialSpec(2.0, 3.0))
    v = rng.standard_normal(small_grid.M)
    assert np.allclose(op.apply(v), dense_operator(op) @ v)


def test_zero_potential_reduces_to_free(small_grid):
    free = build_G0(small_grid, 4)
    pert = build_G(small_grid, 4, PotentialSpec(0.0, 3.0))
    assert np.array_equal(free.diag, pert.diag)
    assert np.array_equal(free.offdiag, pert.offdiag)


def test_pooling_shares_eigensystem(small_grid):
    a = build_G0(small_grid, 4)
    assert build_G0(RadialGrid(16, 159), 4) is a    # equal content, int R
    assert a.eigensystem() is build_G0(small_grid, 4).eigensystem()
    pot = build_G(small_grid, 4, PotentialSpec(2.0, 3.0))
    assert build_G(small_grid, 4, PotentialSpec(2, 3)) is pot
    assert build_G(small_grid, 4, PotentialSpec(2.5, 3.0)) is not pot
    assert build_G(small_grid, 4, PotentialSpec(0.0, 3.0)) is not a
    assert radialop._operator.cache_info().maxsize is not None   # bounded


def test_eigensolve_runs_once_per_operator(monkeypatch, small_grid,
                                           potential, profile):
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return eigh_tridiagonal(*args, **kwargs)

    monkeypatch.setattr(radialop, "eigh_tridiagonal", counted)
    op = replace(build_G(small_grid, 4, potential))   # empty memo
    first = op.eigensystem()
    assert op.eigensystem() is first
    op.band(profile, 0.5)
    assert len(calls) == 1


def test_centrifugal_term_vanishes_in_3d():
    g = RadialGrid(8.0, 79)
    op = build_G0(g, 3)
    # n = 3: (n-1)(n-3)/4 = 0, plain 1-D Laplacian stencil
    assert np.allclose(op.diag, 2.0 / g.dr ** 2)


def test_weight_matrix_is_japanese_bracket(small_grid):
    w = weight_matrix(small_grid, 1.5)
    r = small_grid.nodes
    assert np.allclose(w, (1.0 + r ** 2) ** -0.75)
    with pytest.raises(ValueError):
        weight_matrix(small_grid, np.inf)


def test_positive_spectrum(small_grid):
    vals, _ = build_G0(small_grid, 4).eigensystem()
    assert vals.min() > 0


def _tridiagonals(rng, j):
    """Random, repeated-eigenvalue and split (zero off-diagonal) j x j
    symmetric tridiagonals, the Lanczos form as Python lists among them."""
    d, e = rng.standard_normal(j), rng.standard_normal(j - 1)
    yield d, e
    yield list(d), list(e)
    yield np.full(j, 2.0), np.zeros(j - 1)
    # two equal diagonal blocks split by a zero: every eigenvalue twice
    half = j // 2
    if half:
        dd = np.concatenate([d[:half], d[:half], d[2 * half:]])
        ee = np.concatenate([e[:half - 1], [0.0], e[:half - 1],
                             np.zeros(j - 2 * half)])[:j - 1]
        yield dd, ee


def test_top_eigenpair_is_eigh_tridiagonal_bit_for_bit(rng):
    """The direct LAPACK Ritz step returns eigh_tridiagonal(select="i")'s
    top pair bit for bit, for j = 1..64 (1 x 1 takes the quick exit)."""
    for j in range(1, 65):
        for d, e in _tridiagonals(rng, j):
            vals, vecs = eigh_tridiagonal(d, e, select="i",
                                          select_range=(j - 1, j - 1))
            theta, s = top_eigenpair(d, e)
            assert theta == vals[0]
            assert np.array_equal(s, vecs[:, 0])


def test_top_eigenpair_rejects_non_finite():
    with pytest.raises(ValueError):
        top_eigenpair([1.0, np.nan], [0.5])
