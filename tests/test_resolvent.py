import numpy as np
import pytest

from wavedecay.radialop import PotentialSpec, weight_matrix
from wavedecay.resolvent import (complex_shift_compare, free_green_matrix,
                                 green_delta_residual, la_norm_scan, ls_solve,
                                 regular_solution,
                                 resolvent_difference_vector)

N = 4


def test_green_column_solves_equation(small_grid):
    """(L - lambda^2) applied to a Green column vanishes off the diagonal
    spike.  This pins the sign and the i pi / 2 normalization."""
    for sign in (+1, -1):
        resid = green_delta_residual(small_grid, N, 2.0, sign, col=70)
        assert resid < 2e-2


def test_free_jump_is_rank_one(small_grid):
    u = regular_solution(small_grid, N, 2.0)
    jump = (free_green_matrix(small_grid, N, 2.0, +1)
            - free_green_matrix(small_grid, N, 2.0, -1))
    expect = 1j * np.pi * small_grid.dr * np.outer(u, u)
    assert np.allclose(jump, expect, atol=1e-14)


def test_difference_vector_free_case(small_grid):
    free = PotentialSpec(0.0, 3.0)
    x = resolvent_difference_vector(small_grid, N, free, 2.0)
    assert np.allclose(x, regular_solution(small_grid, N, 2.0))


def test_difference_vector_perturbed(small_grid, potential):
    """R^+ - R^- stays rank one with the potential on."""
    lam = 2.0
    x = resolvent_difference_vector(small_grid, N, potential, lam)
    rp = ls_solve(small_grid, N, potential, lam, +1, s=0.0)
    rm = ls_solve(small_grid, N, potential, lam, -1, s=0.0)
    expect = 1j * np.pi * small_grid.dr * np.outer(x, np.conj(x))
    scale = np.max(np.abs(expect))
    assert np.allclose(rp - rm, expect, atol=1e-8 * scale)


def test_ls_solve_residual_and_record(small_grid, potential):
    """The solve satisfies R = R0 - R0 V R, and the weights sit on the
    outside: <x>^{-s} R <x>^{-s1}."""
    r = ls_solve(small_grid, N, potential, 2.0, +1, s=0.0)
    r0 = free_green_matrix(small_grid, N, 2.0, +1)
    v = potential(small_grid.nodes)
    back = r0 - r0 @ (v[:, None] * r)
    assert np.linalg.norm(back - r, 2) < 1e-10 * np.linalg.norm(r, 2)
    ws, ws1 = weight_matrix(small_grid, 0.55), weight_matrix(small_grid, 1.5)
    weighted = ls_solve(small_grid, N, potential, 2.0, +1, s=0.55, s1=1.5)
    assert np.allclose(weighted, ws[:, None] * r * ws1[None, :],
                       rtol=1e-12, atol=0.0)


def test_ls_reduces_to_free(small_grid):
    free = PotentialSpec(0.0, 3.0)
    r = ls_solve(small_grid, N, free, 2.0, +1, s=0.0)
    assert np.allclose(r, free_green_matrix(small_grid, N, 2.0, +1))


def test_la_norm_scan_free_decay(small_grid):
    # ||<x>^{-s} R0 <x>^{-s}|| ~ lambda^{-1} in the high-energy regime
    free = PotentialSpec(0.0, 3.0)
    lams = np.geomspace(1.0, 8.0, 7)
    report, rows, gaps = la_norm_scan(small_grid, N, free, lams)
    assert not gaps
    assert len(rows) == 7
    assert report.passed
    assert abs(report.fitted_exponent + 1.0) < 0.1


def test_la_norm_scan_records_gaps(small_grid, potential):
    report, rows, gaps = la_norm_scan(small_grid, N, potential,
                                      [-1.0, 1.0, 2.0, 4.0, 8.0, 16.0])
    assert len(gaps) == 1 and gaps[0][0] == -1.0
    assert len(rows) == 5


def test_la_norm_scan_propagates_non_numerical_errors(small_grid, potential):
    # only numerical failures are gaps; a malformed lambda is a caller bug
    with pytest.raises(TypeError):
        la_norm_scan(small_grid, N, potential, [1.0, "2.0", 4.0, 8.0])


def test_complex_shift_routes_agree(small_grid, potential):
    """Continuum-kernel solve vs banded matrix solve at z = lam^2 + i eta.

    The residual gap is Dirichlet-wall leakage of the half-line route,
    ~ e^{-eta R / (2 lam)}, so it must shrink as eta grows."""
    gaps = [complex_shift_compare(small_grid, N, potential, 2.0, eta=eta)
            for eta in (0.5, 1.0, 2.0)]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 0.06
    with pytest.raises(ValueError):
        complex_shift_compare(small_grid, N, potential, 2.0, eta=0.0)


def test_free_green_validation(small_grid):
    with pytest.raises(ValueError):
        free_green_matrix(small_grid, N, 2.0, 0)
    with pytest.raises(ValueError):
        free_green_matrix(small_grid, N, -2.0, +1)
    with pytest.raises(ValueError):
        free_green_matrix(small_grid, N, 2.0 + 1j, -1)
    with pytest.raises(ValueError):
        free_green_matrix(small_grid, N, 2.0 - 1j, +1)


def test_weight_matrix_convention(small_grid):
    w = weight_matrix(small_grid, 1.5)
    expect = (1.0 + small_grid.nodes ** 2) ** -0.75
    assert np.allclose(w, expect)
