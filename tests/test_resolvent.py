import numpy as np
import pytest
from hypothesis import given, note, settings, target
from hypothesis import strategies as st
from scipy.linalg import lu_factor, lu_solve

from wavedecay.radialop import PotentialSpec, weight_matrix
from wavedecay.resolvent import (GROWTH_LIMIT, complex_shift_compare,
                                 free_green_matrix, green_delta_residual,
                                 la_norm_scan, ls_solve, ls_sweep,
                                 regular_solution,
                                 resolvent_difference_vector)

N = 4


def dense_resolvent(grid, potential, lam, sign, b):
    """The oracle: R b = (I + A0 V)^{-1} A0 b by a dense LU."""
    a0 = free_green_matrix(grid, N, lam, sign)
    v = potential(grid.nodes)
    return lu_solve(lu_factor(np.eye(grid.M) + a0 * v[None, :]), a0 @ b)


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
    x = resolvent_difference_vector(small_grid, N, free, [2.0, 3.0])
    assert x.shape == (small_grid.M, 2)
    for k, lam in enumerate((2.0, 3.0)):
        assert np.array_equal(x[:, k], regular_solution(small_grid, N, lam))


def test_difference_vector_perturbed(small_grid, potential):
    """R^+ - R^- stays rank one with the potential on."""
    lam = 2.0
    x = resolvent_difference_vector(small_grid, N, potential, [lam])[:, 0]
    rp = ls_solve(small_grid, N, potential, lam, +1, s=0.0)
    rm = ls_solve(small_grid, N, potential, lam, -1, s=0.0)
    expect = 1j * np.pi * small_grid.dr * np.outer(x, np.conj(x))
    scale = np.max(np.abs(expect))
    assert np.allclose(rp - rm, expect, atol=1e-8 * scale)


def test_ls_solve_residual_and_record(small_grid, potential):
    """The solve satisfies R = R0 - R0 V R, R is complex-symmetric (what
    la_norm_scan's power iteration relies on), and the weights sit on the
    outside: <x>^{-s} R <x>^{-s}."""
    r = ls_solve(small_grid, N, potential, 2.0, +1, s=0.0)
    r0 = free_green_matrix(small_grid, N, 2.0, +1)
    v = potential(small_grid.nodes)
    back = r0 - r0 @ (v[:, None] * r)
    assert np.linalg.norm(back - r, 2) < 1e-10 * np.linalg.norm(r, 2)
    assert np.linalg.norm(r - r.T, 2) < 1e-12 * np.linalg.norm(r, 2)
    ws = weight_matrix(small_grid, 0.55)
    weighted = ls_solve(small_grid, N, potential, 2.0, +1, s=0.55)
    assert np.allclose(weighted, ws[:, None] * r * ws[None, :],
                       rtol=1e-12, atol=0.0)


@settings(max_examples=30, deadline=None)
@given(lam=st.floats(0.2, 6.0), im=st.floats(0.0, 0.5),
       complex_lam=st.booleans(), sign=st.sampled_from((+1, -1)),
       c=st.floats(0.0, 4.0),
       delta=st.floats(2.5, 4.0, exclude_min=True),
       k=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
def test_sweep_matches_dense_lu(small_grid, lam, im, complex_lam, sign, c,
                                delta, k, seed):
    """The sweep against the dense LU over random frequencies, potentials
    and right-hand sides.  Tolerance: 1e-12 relative for real lambda; for
    complex lambda (outgoing branch, Im lambda <= 0.5) 1e-12 times the
    sweep's growth e^{Im lambda R}, which reaches about 3e3 on this grid."""
    if complex_lam:
        lam, sign = complex(lam, im), +1
    growth = float(np.exp(np.imag(lam) * small_grid.R))
    note(f"growth e^(Im lambda R) = {growth:.3g}")
    target(growth, label="growth")
    pot = PotentialSpec(c, delta)
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((small_grid.M, k))
    b = b + 1j * rng.standard_normal(b.shape)
    want = dense_resolvent(small_grid, pot, lam, sign, b)
    got = ls_sweep(small_grid, N, pot, [lam], b, sign)[0]
    err = np.linalg.norm(got - want) / np.linalg.norm(want)
    assert err <= 1e-12 * growth
    left = rng.standard_normal((2, small_grid.M))
    projected = ls_sweep(small_grid, N, pot, [lam], b, sign, left=left)[0]
    assert np.allclose(projected, left @ got, rtol=1e-13, atol=0.0)


def test_sweep_batches_match_one_lambda_at_a_time(small_grid, potential):
    """A lambda array through the blocks equals the lambdas one by one."""
    lams = np.linspace(0.5, 4.0, 200)       # blocks of M // 2 = 79 lambdas
    x = resolvent_difference_vector(small_grid, N, potential, lams)
    for k in (0, 78, 79, 157, 158, 199):
        one = resolvent_difference_vector(small_grid, N, potential,
                                          lams[k:k + 1])[:, 0]
        assert np.array_equal(x[:, k], one)


def test_growth_past_the_limit_raises(small_grid, potential):
    lam = 2.0 + 1.2j                          # e^{1.2 * 16} = 2.2e8
    with pytest.raises(ValueError, match=r"lambda \(2\+1\.2j\).*2\.18e\+08"
                       r".*limit 1e\+08"):
        ls_sweep(small_grid, N, potential, [2.0, lam], np.eye(small_grid.M),
                 +1)
    assert GROWTH_LIMIT == 1e8
    # just inside the limit the sweep runs and stays finite
    r = ls_solve(small_grid, N, potential, 2.0 + 1.1j, +1)
    assert np.all(np.isfinite(r))


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_singular_system_raises(small_grid):
    """An overflowing potential leaves det(I + A0 V) non-finite."""
    huge = PotentialSpec(1e300, 3.0)
    with pytest.raises(np.linalg.LinAlgError,
                       match=r"lambda 2\.0: det\(I \+ A0 V\) = \(nan"):
        ls_sweep(small_grid, N, huge, [2.0], np.eye(small_grid.M), +1)
    with pytest.raises(np.linalg.LinAlgError, match="det"):
        resolvent_difference_vector(small_grid, N, huge, [2.0])


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
