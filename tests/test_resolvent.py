import numpy as np
import pytest
from hypothesis import given, note, settings, target
from hypothesis import strategies as st
from scipy import special
from scipy.linalg import lu_factor, lu_solve

from wavedecay import resolvent
from wavedecay.fitting import fit_power_law
from wavedecay.radialop import (PotentialSpec, RadialGrid, build_G,
                                build_G0, weight_matrix)
from wavedecay.resolvent import (SCAN_S, complex_shift_compare,
                                 free_green_matrix, la_norm_scan, ls_sweep,
                                 resolvent_difference_vector)

N = 4
# unit spacing: dr = 1 on R = 16
UNIT_GRID = RadialGrid(16.0, 15)


def green_matrix(grid, n, lam, sign):
    """A0^{sign}: the package's outgoing matrix for sign = +1; for -1 the
    oracle -(i pi / 2) dr sqrt(r r') J_nu(lam r_<) H_nu^(2)(lam r_>) from
    scipy's jv and hankel2, which the package takes as conj(A0^+) and
    never forms."""
    if sign == +1:
        return free_green_matrix(grid, n, lam)
    nu = (n - 2) / 2.0
    root = np.sqrt(grid.nodes)
    u1 = root * special.jv(nu, lam * grid.nodes)
    u2 = root * special.hankel2(nu, lam * grid.nodes)
    return -0.5j * np.pi * grid.dr * (np.tril(np.outer(u2, u1))
                                      + np.triu(np.outer(u1, u2), k=1))


def dense_resolvent(grid, potential, lam, sign, b):
    """The oracle: R b = (I + A0 V)^{-1} A0 b by a dense LU, at the
    potential's dimension."""
    a0 = green_matrix(grid, potential.n, lam, sign)
    v = potential(grid.nodes)
    return lu_solve(lu_factor(np.eye(grid.M) + a0 * v[None, :]), a0 @ b)


def sweep(grid, potential, lam, b, sign, left):
    """left R^{sign}(lam) b by ls_sweep at the potential's dimension.  The
    package forms R^+ only; R^- b is conj(R^+ conj(b)), V and a real
    lambda being real."""
    if sign == +1:
        return ls_sweep(grid, potential.n, potential, [lam], b, left)[0]
    return np.conj(ls_sweep(grid, potential.n, potential, [lam], np.conj(b),
                            np.conj(left))[0])


def resolvent_matrix(grid, potential, lam, sign, s=0.0):
    """Dense <x>^{-s} R <x>^{-s}: the banded solve on the identity."""
    eye = np.eye(grid.M)
    r = sweep(grid, potential, lam, eye, sign, eye)
    ws = weight_matrix(grid, s)
    return ws[:, None] * r * ws[None, :]


@pytest.mark.parametrize("lam, sign", [
    (0.2, +1), (0.2, -1), (2.0, +1), (2.0, -1), (6.0, +1), (6.0, -1),
    (0.86 + 0.48j, +1), (5.09 + 0.49j, +1)])
def test_tridiagonal_inverts_free_green_matrix(lam, sign):
    """The band of _inverse_green is the inverse of the dense free Green
    matrix, and its conjugate that of the incoming one from hankel2.  At
    complex lambda the cross products cancel like e^{2 Im lambda r} unless
    they are taken from J and H directly."""
    off, diag = resolvent._inverse_green(UNIT_GRID, N, lam)[:2]
    t = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    if sign == -1:
        t = np.conj(t)
    a0 = green_matrix(UNIT_GRID, N, lam, sign)
    assert np.linalg.norm(a0 @ t - np.eye(UNIT_GRID.M), 2) <= 1e-12


def green_delta_residual(grid, n, lam, sign, col):
    """Apply the discretized (L - lambda^2) to one Green column; away from
    the diagonal the result should vanish relative to the delta spike.
    This is the sign/normalization oracle."""
    g = green_matrix(grid, n, lam, sign)[:, col] / grid.dr
    op = build_G0(grid, n)
    resid = op.apply(g.real) + 1j * op.apply(g.imag) - lam ** 2 * g
    spike = np.abs(resid[col])
    mask = np.ones(grid.M, bool)
    lo, hi = max(col - 1, 0), min(col + 2, grid.M)
    mask[lo:hi] = False
    # drop the last node too: the Dirichlet wall at R truncates H_nu
    mask[-1] = False
    # and the first two: the centrifugal 1/r^2 is badly resolved by the
    # second-order stencil right at the origin
    mask[:2] = False
    return float(np.max(np.abs(resid[mask])) / spike)


def test_green_column_solves_equation(small_grid):
    """(L - lambda^2) applied to a Green column vanishes off the diagonal
    spike.  This pins the sign and the i pi / 2 normalization."""
    for sign in (+1, -1):
        resid = green_delta_residual(small_grid, N, 2.0, sign, col=70)
        assert resid < 2e-2


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_free_jump_is_rank_one(small_grid, n):
    """A0^+ - A0^- = i pi dr u u^T with A0^- = conj(A0^+), held to the
    incoming matrix built from scipy's hankel2.  n = 4 takes cephes' j1
    and y1, the other orders AMOS."""
    a0 = free_green_matrix(small_grid, n, 2.0)
    assert np.allclose(np.conj(a0), green_matrix(small_grid, n, 2.0, -1),
                       rtol=0.0, atol=1e-14)
    u = resolvent._bessel_pair(small_grid, n, 2.0)[0]
    expect = 1j * np.pi * small_grid.dr * np.outer(u, u)
    assert np.allclose(a0 - np.conj(a0), expect, rtol=0.0, atol=1e-14)


def test_difference_vector_free_case(small_grid):
    free = PotentialSpec(0.0, 3.0)
    x = resolvent_difference_vector(small_grid, N, free, [2.0, 3.0])
    assert x.shape == (small_grid.M, 2)
    for k, lam in enumerate((2.0, 3.0)):
        assert np.array_equal(
            x[:, k], resolvent._bessel_pair(small_grid, N, lam)[0])


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_difference_vector_perturbed(small_grid, n):
    """R^+ - R^- stays rank one with the potential on, R^- = conj(R^+)
    held to the dense solve on the hankel2 matrix (1e-12 relative)."""
    lam, potential = 2.0, PotentialSpec(2.0, n / 2.0 + 1.0, n)
    x = resolvent_difference_vector(small_grid, n, potential, [lam])[:, 0]
    rp = resolvent_matrix(small_grid, potential, lam, +1)
    rm = resolvent_matrix(small_grid, potential, lam, -1)
    oracle = dense_resolvent(small_grid, potential, lam, -1,
                             np.eye(small_grid.M))
    assert np.linalg.norm(rm - oracle) <= 1e-12 * np.linalg.norm(oracle)
    expect = 1j * np.pi * small_grid.dr * np.outer(x, np.conj(x))
    scale = np.max(np.abs(expect))
    assert np.allclose(rp - rm, expect, atol=1e-8 * scale)


def test_ls_solve_residual_and_record(small_grid, potential):
    """The solve satisfies R = R0 - R0 V R, and R is complex-symmetric
    (what la_norm_scan's Lanczos norm relies on)."""
    r = resolvent_matrix(small_grid, potential, 2.0, +1)
    r0 = free_green_matrix(small_grid, N, 2.0)
    v = potential(small_grid.nodes)
    back = r0 - r0 @ (v[:, None] * r)
    assert np.linalg.norm(back - r, 2) < 1e-10 * np.linalg.norm(r, 2)
    assert np.linalg.norm(r - r.T, 2) < 1e-12 * np.linalg.norm(r, 2)


@settings(max_examples=30, deadline=None)
@given(lam=st.floats(0.2, 6.0), im=st.floats(0.0, 3.0),
       complex_lam=st.booleans(), sign=st.sampled_from((+1, -1)),
       c=st.floats(0.0, 4.0),
       delta=st.floats(2.5, 4.0, exclude_min=True),
       k=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
def test_sweep_matches_dense_lu(small_grid, lam, im, complex_lam, sign, c,
                                delta, k, seed):
    """The banded solve against the dense LU over random frequencies,
    potentials and right-hand sides: 1e-12 relative, for real lambda (R^-
    as the conjugate, against the hankel2 matrix) and for complex lambda
    (outgoing branch, Im lambda <= 3, where e^{Im lambda R} reaches 7e20 on
    this grid)."""
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
    eye = np.eye(small_grid.M)
    got = sweep(small_grid, pot, lam, b, sign, eye)
    err = np.linalg.norm(got - want) / np.linalg.norm(want)
    assert err <= 1e-12
    left = rng.standard_normal((2, small_grid.M))
    projected = sweep(small_grid, pot, lam, b, sign, left)
    assert np.allclose(projected, left @ got, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_inverse_green_on_an_array_is_the_per_lambda_calls(small_grid, kind):
    """Bands built for a lambda array equal the per-lambda bands bit for
    bit, on both sides of the Taylor branch (lambda dr <= 1)."""
    lams = np.linspace(0.2, 12.0, 9)
    if kind == "complex":
        lams = lams + 1j * np.linspace(0.0, 2.0, 9)
    whole = resolvent._inverse_green(small_grid, N, lams)
    for k, lam in enumerate(lams):
        one = resolvent._inverse_green(small_grid, N, lam)
        for got, want in zip(whole[:4], one[:4]):
            assert np.array_equal(got[k], want)
        assert whole[4] == one[4]


def test_sweep_batches_match_one_lambda_at_a_time(small_grid, potential):
    """A lambda array equals the lambdas one by one, at the chunk edges,
    for real and for complex lambda."""
    chunk = resolvent.CHUNK // small_grid.M
    count = 2 * chunk + 2
    real = np.linspace(0.5, 4.0, count)
    for lams in (real, real + 1j * np.linspace(0.0, 2.0, count)):
        x = resolvent_difference_vector(small_grid, N, potential, lams)
        for k in (0, chunk - 1, chunk, 2 * chunk - 1, 2 * chunk, count - 1):
            one = resolvent_difference_vector(small_grid, N, potential,
                                              lams[k:k + 1])[:, 0]
            assert np.array_equal(x[:, k], one)


@pytest.mark.parametrize("lam", [0.2, 1.0, 3.7, 6.0, 0.5 + 0.5j, 2.0 + 1.5j,
                                 4.0 + 3.0j, 6.0 + 3.0j])
def test_generator_apply_matches_dense_lu(small_grid, potential, lam):
    """The generator apply, R = P Q^T / P_1 above the diagonal, against the
    dense LU of I + A0 V on the whole identity: 1e-14 relative (Frobenius),
    both branches at real lambda (R^- as the conjugate, against the hankel2
    matrix) and the outgoing one at complex lambda up to Im lambda = 3.  With the refinement step dropped from the generator
    solve it reads up to 9e-14 (lambda = 0.2)."""
    eye = np.eye(small_grid.M)
    for sign in ((+1, -1) if np.isrealobj(lam) else (+1,)):
        want = dense_resolvent(small_grid, potential, lam, sign, eye)
        got = sweep(small_grid, potential, lam, eye, sign, eye)
        err = np.linalg.norm(got - want) / np.linalg.norm(want)
        assert err <= 1e-14, (sign, err)


@pytest.mark.parametrize("lam, sign", [(0.4, -1), (2.5, +1), (3.0 + 2.0j, +1)])
def test_projected_sweep_matches_refined_solves(small_grid, potential, lam,
                                                sign):
    """ls_sweep(..., left) against left @ the refined solve run on each
    column of b by itself: 1e-14 of the largest entry.  R^- b is taken as
    conj(R^+ conj(b)) on both sides."""
    rng = np.random.default_rng(7)
    b = rng.standard_normal((small_grid.M, 6)) + 1j * rng.standard_normal(
        (small_grid.M, 6))
    left = rng.standard_normal((4, small_grid.M))
    off, diag, u1, u2, c = resolvent._inverse_green(small_grid, N, lam)
    v = potential(small_grid.nodes)
    lu = resolvent._factor(off, diag + v, lam)
    data = b if sign == +1 else np.conj(b)
    cols = np.stack([resolvent._refined_solve(
        lam, lu, v, u1, u2, c, np.asfortranarray(data[:, [k]]))[:, 0]
        for k in range(b.shape[1])], axis=1)
    want = left @ (cols if sign == +1 else np.conj(cols))
    got = sweep(small_grid, potential, lam, b, sign, left)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_one_factorization_per_lambda(monkeypatch, small_grid, potential):
    """One zgttrf per lambda and two zgttrs per lambda (the generator solve
    and its refinement, each on the two columns e_M, e_1), across a chunk
    edge, whatever the number K of right-hand sides: COUNTS reads one
    factorization and 4 solved columns per lambda."""
    calls = {}

    def counted(name, kernel):
        def call(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return kernel(*args, **kwargs)
        return call
    monkeypatch.setattr(resolvent, "_GTTRF",
                        counted("gttrf", resolvent._GTTRF))
    monkeypatch.setattr(resolvent, "_GTTRS",
                        counted("gttrs", resolvent._GTTRS))
    lams = np.linspace(1.0, 3.0, resolvent.CHUNK // small_grid.M + 2)
    want = {"resolvent.lu_factors": lams.size,
            "resolvent.lu_solves": 4 * lams.size}
    for k in (1, 3, 28):
        calls.clear()
        before = dict(resolvent.COUNTS)
        ls_sweep(small_grid, N, potential, lams,
                 np.eye(small_grid.M)[:, :k], np.eye(small_grid.M))
        assert calls == {"gttrf": lams.size, "gttrs": 2 * lams.size}
        assert {key: resolvent.COUNTS[key] - before[key]
                for key in before} == want
    calls.clear()
    before = dict(resolvent.COUNTS)
    resolvent_difference_vector(small_grid, N, potential, lams)
    assert calls == {"gttrf": lams.size, "gttrs": 2 * lams.size}
    assert {key: resolvent.COUNTS[key] - before[key]
            for key in before} == want


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:underflow:RuntimeWarning")
def test_generators_out_of_range_raise(monkeypatch, potential):
    """R_1M ~ e^{-Im lambda R}: the generator form cannot reach as far into
    the upper half plane as the refined solve.  On R = 16 with dr = 1e-3,
    lambda = 2 + 43.34i leaves every Bessel value and A0^-1 + V finite but
    R_1M subnormal (9e-309): a ValueError naming lambda.  On a coarse grid
    such as UNIT_GRID the Bessel overflow check always fires first
    (H_nu(lambda R) underflows before R_1M does, since sqrt(r_1)
    J_nu(lambda r_1) is larger there).  la_norm_scan's lambdas are real,
    where R_1M stays of order one, so its gap is shown on generators
    scaled into the subnormal range."""
    grid = RadialGrid(16.0, 15999)
    lam = 2.0 + 43.34j
    assert np.isfinite(np.concatenate(
        resolvent._inverse_green(grid, N, lam)[:4])).all()
    with pytest.raises(ValueError, match=r"lambda \(2\+43\.34j\): "
                       r"generators out of range"):
        ls_sweep(grid, N, potential, [2.0, lam], np.ones(grid.M),
                 np.ones((1, grid.M)))
    solve = resolvent._refined_solve
    monkeypatch.setattr(resolvent, "_refined_solve",
                        lambda *args: solve(*args) * 1e-310)
    rows, gaps = la_norm_scan(UNIT_GRID, N, potential, [2.5])
    assert rows == [] and gaps[0][0] == 2.5
    assert "lambda 2.5: generators out of range" in gaps[0][1]


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_singular_system_raises(potential):
    """Bessel values that leave the float range (J_nu(lambda R) ~
    e^{60 * 16}) make A0^-1 + V non-finite: a ValueError naming lambda."""
    with pytest.raises(ValueError, match=r"lambda \(2\+60j\): A0\^-1 \+ V "
                       r"is not finite"):
        ls_sweep(UNIT_GRID, N, potential, [2.0, 2.0 + 60j],
                 np.eye(UNIT_GRID.M), np.eye(UNIT_GRID.M))
    with pytest.raises(ValueError, match=r"lambda \(2\+60j\)"):
        resolvent_difference_vector(UNIT_GRID, N, potential, [2.0 + 60j])


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_sweep_names_the_first_bad_lambda_past_the_first_chunk(potential):
    chunk = resolvent.CHUNK // UNIT_GRID.M
    lams = np.full(chunk + 5, 2.0, complex)
    lams[chunk + 3], lams[chunk + 4] = 2.0 + 60j, 2.0 + 70j
    with pytest.raises(ValueError, match=r"lambda \(2\+60j\): A0\^-1 \+ V "
                       r"is not finite"):
        ls_sweep(UNIT_GRID, N, potential, lams, np.ones(UNIT_GRID.M),
                 np.eye(UNIT_GRID.M))


def test_singular_pivot_raises_naming_lambda(monkeypatch, potential):
    """A zgttrf info > 0 (an exactly zero pivot) is a LinAlgError naming
    lambda, and a gap of la_norm_scan."""
    kernel = resolvent._GTTRF

    def singular(*args, **kwargs):
        return (*kernel(*args, **kwargs)[:-1], 3)
    monkeypatch.setattr(resolvent, "_GTTRF", singular)
    with pytest.raises(np.linalg.LinAlgError, match=r"lambda 2\.5"):
        ls_sweep(UNIT_GRID, N, potential, [2.5], np.ones(UNIT_GRID.M),
                 np.eye(UNIT_GRID.M))
    rows, gaps = la_norm_scan(UNIT_GRID, N, potential, [2.5])
    assert rows == [] and gaps[0][0] == 2.5 and "LinAlgError" in gaps[0][1]


def test_ls_reduces_to_free(small_grid):
    free = PotentialSpec(0.0, 3.0)
    r = resolvent_matrix(small_grid, free, 2.0, +1)
    assert np.allclose(r, free_green_matrix(small_grid, N, 2.0))


def test_la_norm_scan_free_decay(small_grid):
    # ||<x>^{-s} R0 <x>^{-s}|| ~ lambda^{-1} in the high-energy regime
    free = PotentialSpec(0.0, 3.0)
    lams = np.geomspace(1.0, 8.0, 7)
    rows, gaps = la_norm_scan(small_grid, N, free, lams)
    assert not gaps
    assert len(rows) == 7
    report = fit_power_law([(lam, nrm) for lam, nrm, _ in rows], "la",
                           "lambda", target=-1.0, tolerance=0.1)
    assert report.passed
    assert abs(report.fitted_exponent + 1.0) < 0.1


def test_la_norm_scan_records_gaps(small_grid, potential):
    rows, gaps = la_norm_scan(small_grid, N, potential,
                              [-1.0, 1.0, 2.0, 4.0, 8.0, 16.0])
    assert len(gaps) == 1 and gaps[0][0] == -1.0
    assert len(rows) == 5


def test_la_norm_scan_gap_between_rows(small_grid, potential):
    # one solver per lambda: a bad lambda is its own gap only
    rows, gaps = la_norm_scan(small_grid, N, potential, [1.0, -1.0, 2.0])
    assert [lam for lam, _ in gaps] == [-1.0]
    assert [row[0] for row in rows] == [1.0, 2.0]


def test_la_norm_scan_keeps_gaps_when_nothing_survives(small_grid):
    # too few surviving lambdas for any fit: the gaps still come back
    rows, gaps = la_norm_scan(small_grid, N, PotentialSpec(np.inf, 3.0),
                              [1.0, 2.0])
    assert rows == []
    assert [lam for lam, _ in gaps] == [1.0, 2.0]
    assert "not finite" in gaps[0][1]


def test_la_norm_scan_matches_dense_norm(small_grid, potential):
    """The implicit Lanczos norm against LAPACK's 2-norm of w R w."""
    lams = [0.5, 2.0, 5.0]
    rows, gaps = la_norm_scan(small_grid, N, potential, lams)
    assert not gaps
    for lam, (_, nrm, _) in zip(lams, rows):
        dense = np.linalg.norm(
            resolvent_matrix(small_grid, potential, lam, +1, SCAN_S), 2)
        assert nrm == pytest.approx(dense, rel=1e-12, abs=0.0)


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


def test_complex_shift_matches_dense_form(small_grid, potential,
                                          dense_operator):
    """The implicit norms against the dense matrices they replace."""
    w = weight_matrix(small_grid, SCAN_S)
    for lam, eta in ((2.0, 0.5), (1.0, 2.0)):
        z = lam ** 2 + 1j * eta
        a_ls = resolvent_matrix(small_grid, potential, np.sqrt(z), +1, SCAN_S)
        g = dense_operator(build_G(small_grid, N, potential))
        r_fd = np.linalg.solve(g - z * np.eye(small_grid.M),
                               np.eye(small_grid.M))
        a_fd = w[:, None] * r_fd * w[None, :]
        dense = np.linalg.norm(a_ls - a_fd, 2) / np.linalg.norm(a_fd, 2)
        got = complex_shift_compare(small_grid, N, potential, lam, eta)
        assert got == pytest.approx(dense, rel=1e-10, abs=0.0)


def test_free_green_validation(small_grid):
    with pytest.raises(ValueError, match="> 0"):
        free_green_matrix(small_grid, N, -2.0)
    with pytest.raises(ValueError, match="Im >= 0"):
        free_green_matrix(small_grid, N, 2.0 - 1j)


def test_potential_of_another_dimension_raises(small_grid, potential):
    """A potential specified for n = 4 (delta = 3 > 5/2) is not one of
    n = 6 (delta would have to exceed 7/2): the sweep, and the scan that
    turns numerical failures into gaps, raise naming both dimensions."""
    with pytest.raises(ValueError, match="n = 4 used at n = 6"):
        ls_sweep(small_grid, 6, potential, [2.0], np.ones(small_grid.M),
                 np.eye(small_grid.M))
    with pytest.raises(ValueError, match="n = 4 used at n = 6"):
        la_norm_scan(small_grid, 6, potential, [2.0])


def test_weight_matrix_convention(small_grid):
    w = weight_matrix(small_grid, 1.5)
    expect = (1.0 + small_grid.nodes ** 2) ** -0.75
    assert np.allclose(w, expect)
