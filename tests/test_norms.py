import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wavedecay import norms
from wavedecay.funcalc import _lemma23_rows, phi_of_hsqrt
from wavedecay.norms import (LowRank, band_norm_1_to_inf, band_norm_2,
                             band_norm_2_to_inf, band_norm_inf,
                             operator_two_norm, sector_weights)
from wavedecay.profiles import bump, plateau
from wavedecay.radialop import RadialGrid, build_G, build_G0, weight_matrix
from wavedecay.resolvent import ls_sweep


@pytest.fixture(scope="module")
def grid():
    return RadialGrid(4.0, 39)


# The dense sector norms: the oracles of the band norms, which are the
# only sector norms in src/.


def op_norm_2(matrix):
    """Spectral norm (largest singular value) by operator_two_norm, on the
    transpose of a wide matrix so that m is the smaller side."""
    a = matrix if matrix.shape[0] >= matrix.shape[1] else matrix.T
    return operator_two_norm(a.__matmul__, a.T.__matmul__, a.shape[1])


def op_norm_p(matrix, grid, n, p):
    """Sector L^p -> L^p norm for p in {1, inf}: the largest weighted
    absolute column (p = 1) or row (p = inf) sum."""
    rho = sector_weights(grid, n)
    if p == np.inf:
        return float(np.max((np.abs(matrix) @ rho) / rho))
    return float(np.max((rho @ np.abs(matrix)) / rho))


def op_norm_2_to_inf(matrix, grid, n):
    rho = sector_weights(grid, n)
    row = np.linalg.norm(matrix, axis=1)
    return float(np.max(row / rho) / np.sqrt(grid.dr))


def op_norm_1_to_inf(matrix, grid, n):
    rho = sector_weights(grid, n)
    a = np.abs(matrix) / np.outer(rho, rho)
    return float(np.max(a) / grid.dr)


def _sector_apply(matrix, grid, n, g):
    # the induced operator on radial functions g(r)
    rho = sector_weights(grid, n)
    return (matrix @ (rho * g)) / rho


def test_two_norm_is_spectral(rng):
    a = rng.standard_normal((30, 30))
    s = np.linalg.svd(a, compute_uv=False)
    assert op_norm_2(a) == pytest.approx(s[0])


def _with_singular_values(rng, rows, cols, sv, cplx):
    """A rows x cols matrix with the given singular values (len(sv) <=
    min(rows, cols)) between random orthonormal factors."""
    def orth(size):
        g = rng.standard_normal((size, len(sv)))
        if cplx:
            g = g + 1j * rng.standard_normal((size, len(sv)))
        return np.linalg.qr(g)[0]
    return (orth(rows) * sv) @ orth(cols).conj().T


def _rank_one_off_start(rng, rows, cols, cplx):
    """A rows x cols rank-one matrix x y^T with y^T v = 0 for the kernel's
    start vector v on the side op_norm_2 iterates on (the smaller one): y
    is s (v_{a+1}, -v_a) at a random pair (a, a + 1) and zero elsewhere,
    and s and every x_r are signed powers of two (times a power of i when
    complex).  Where the BLAS rounds each product, B v cancels to exactly
    0 and the first Lanczos block is invariant (as in the explicit
    examples below, with numpy's OpenBLAS); a fused multiply-add leaves
    round-off in B v, from which the kernel steps on."""
    def powers(size):
        p = rng.choice([-1.0, 1.0], size) * 2.0 ** rng.integers(-3, 4, size)
        return p * 1j ** rng.integers(0, 4, size) if cplx else p
    m = min(rows, cols)
    v = norms._start_vector(m, 0)
    a = rng.integers(0, m - 1)
    y = np.zeros(m, dtype=complex if cplx else float)
    y[a:a + 2] = powers(1) * np.array([v[a + 1], -v[a]])
    x = powers(max(rows, cols))
    return np.outer(x, y) if rows >= cols else np.outer(y, x)


@settings(max_examples=80, deadline=None)
@given(rows=st.integers(1, 40), cols=st.integers(1, 40),
       rank=st.integers(0, 40), repeat=st.integers(1, 4),
       cplx=st.booleans(), off_start=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
@example(rows=1, cols=1, rank=1, repeat=1, cplx=False, off_start=False,
         seed=0)
@example(rows=1, cols=9, rank=1, repeat=1, cplx=True, off_start=False,
         seed=1)
@example(rows=12, cols=5, rank=0, repeat=1, cplx=False, off_start=False,
         seed=2)
@example(rows=30, cols=30, rank=30, repeat=4, cplx=True, off_start=False,
         seed=3)
@example(rows=8, cols=6, rank=1, repeat=1, cplx=False, off_start=True,
         seed=4)
@example(rows=8, cols=6, rank=1, repeat=1, cplx=True, off_start=True,
         seed=6)
@example(rows=7, cols=20, rank=1, repeat=1, cplx=True, off_start=True,
         seed=0)
def test_op_norm_2_matches_lapack_property(rows, cols, rank, repeat, cplx,
                                           off_start, seed):
    """op_norm_2 against LAPACK's SVD to 1e-13: real and complex, tall and
    wide, rank-deficient (rank 0 is the zero matrix), the top singular
    value repeated, 1 x 1 and 1 x n, and rank one with the start vector in
    the null space (off_start)."""
    rng = np.random.default_rng(seed)
    if off_start and min(rows, cols) > 1:
        a = _rank_one_off_start(rng, rows, cols, cplx)
    else:
        sv = np.sort(rng.uniform(0.1, 2.0, min(rank, rows, cols)))[::-1]
        sv[:repeat] = sv[:1]
        a = _with_singular_values(rng, rows, cols, sv, cplx)
    assert op_norm_2(a) == pytest.approx(np.linalg.norm(a, 2), rel=1e-13,
                                         abs=0.0)


def _unitary_band(small_grid, potential):
    op = build_G(small_grid, 4, potential)
    band = op.band(plateau(1.0, 8.0), 1.0)
    return LowRank(band.vecs, band.coeff(16.0), band.vecs).matrix


def _weighted_cutoff(small_grid, potential):
    # <x>^{-1} P0 <x> at h = 1/8 on the benchmark grid (report 2.26): a
    # clustered top, about 100 Lanczos steps
    grid = RadialGrid(64.0, 512)
    ws = weight_matrix(grid, 1.0)
    return ws[:, None] * phi_of_hsqrt(build_G0(grid, 4), bump(), 0.125) / ws


def _weighted_resolvent(small_grid, potential):
    eye = np.eye(small_grid.M)
    r = ls_sweep(small_grid, 4, potential, [2.0], eye, eye)
    w = weight_matrix(small_grid, 0.55)
    return w[:, None] * r[0] * w[None, :]


def _off_start_rank_one(small_grid, potential):
    # ones(8) w^T with w = (v_1, -v_0, 0, 0, 0, 0), v the start vector on
    # C^6: B v = 0, so the first block is the invariant null direction
    v = norms._start_vector(6, 0)
    return np.outer(np.ones(8), [v[1], -v[0], 0.0, 0.0, 0.0, 0.0])


@pytest.mark.parametrize("build", [_unitary_band, _weighted_cutoff,
                                   _weighted_resolvent, _off_start_rank_one],
                         ids=lambda f: f.__name__.lstrip("_"))
def test_op_norm_2_named_cases(build, small_grid, potential):
    a = build(small_grid, potential)
    assert op_norm_2(a) == pytest.approx(np.linalg.norm(a, 2), rel=1e-13,
                                         abs=0.0)


def test_p_norms_attained_by_vectors(grid, rng):
    """Random vectors never beat the claimed norm; the extremal candidate
    essentially attains it."""
    n = 4
    a = rng.standard_normal((grid.M, grid.M))
    rho = sector_weights(grid, n)
    mass = rho ** 2 * grid.dr            # r^{n-1} dr quadrature weights
    ninf = op_norm_p(a, grid, n, np.inf)
    none = op_norm_p(a, grid, n, 1)
    for _ in range(25):
        g = rng.standard_normal(grid.M)
        out = _sector_apply(a, grid, n, g)
        assert np.max(np.abs(out)) <= ninf * np.max(np.abs(g)) * (1 + 1e-9)
        assert mass @ np.abs(out) <= none * (mass @ np.abs(g)) * (1 + 1e-9)
    # sup-norm extremizer: g = sign pattern of the worst row
    i = int(np.argmax((np.abs(a) @ rho) / rho))
    g = np.sign(a[i])
    out = _sector_apply(a, grid, n, g)
    assert np.max(np.abs(out)) == pytest.approx(ninf, rel=1e-12)


def test_2_to_inf_definition(grid, rng):
    n = 4
    a = rng.standard_normal((grid.M, grid.M))
    claimed = op_norm_2_to_inf(a, grid, n)
    rho = sector_weights(grid, n)
    mass = rho ** 2 * grid.dr
    for _ in range(25):
        g = rng.standard_normal(grid.M)
        out = _sector_apply(a, grid, n, g)
        l2 = np.sqrt(mass @ g ** 2)
        assert np.max(np.abs(out)) <= claimed * l2 * (1 + 1e-9)
    # extremizer: align g with the worst weighted row
    i = int(np.argmax(np.linalg.norm(a, axis=1) / rho))
    g = a[i] / rho / np.sqrt(grid.dr)
    g /= np.sqrt(mass @ g ** 2)
    out = _sector_apply(a, grid, n, g)
    assert np.max(np.abs(out)) == pytest.approx(claimed, rel=1e-12)


def test_1_to_inf_definition(grid, rng):
    n = 4
    a = rng.standard_normal((grid.M, grid.M))
    claimed = op_norm_1_to_inf(a, grid, n)
    rho = sector_weights(grid, n)
    mass = rho ** 2 * grid.dr
    for _ in range(25):
        g = rng.standard_normal(grid.M)
        out = _sector_apply(a, grid, n, g)
        assert np.max(np.abs(out)) <= claimed * (mass @ np.abs(g)) * (1 + 1e-9)
    # delta extremizer at the worst column
    i, j = np.unravel_index(np.argmax(np.abs(a) / np.outer(rho, rho)),
                            a.shape)
    g = np.zeros(grid.M)
    g[j] = 1.0 / mass[j]
    out = _sector_apply(a, grid, n, g)
    assert np.max(np.abs(out)) == pytest.approx(claimed, rel=1e-12)


def test_power_iteration_matches_svd(rng):
    a = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
    got = operator_two_norm(lambda v: a @ v, lambda v: a.T @ v, 40)
    assert got == pytest.approx(np.linalg.norm(a, 2), rel=1e-8)


def test_power_iteration_zero_operator():
    z = np.zeros((7, 7))
    assert operator_two_norm(lambda v: z @ v, lambda v: z @ v, 7) == 0.0


def test_power_iteration_raises_when_unconverged():
    # top singular values 1 and 0.999: two steps cannot settle to 1e-10
    a = np.diag([1.0, 0.999, 0.5, 0.1])
    with pytest.raises(np.linalg.LinAlgError):
        operator_two_norm(lambda v: a @ v, lambda v: a.T @ v, 4, max_iter=2)


def _factors(rng, m, k, t=3):
    left = rng.standard_normal((m, k))
    right = rng.standard_normal((m, k))
    coeffs = rng.standard_normal((t, k)) + 1j * rng.standard_normal((t, k))
    return left, right, coeffs


def _dense(left, right, coeffs):
    """The T dense operators left diag(c) right^T, one per row c."""
    return [left @ (c[:, None] * right.T) for c in coeffs]


def test_band_norm2_matches_dense(rng):
    left, right, coeffs = _factors(rng, 80, 12)
    got = band_norm_2(left, right, coeffs)
    assert got.shape == (3,)
    for g, dense in zip(got, _dense(left, right, coeffs)):
        assert g == pytest.approx(np.linalg.norm(dense, 2), rel=1e-10)
    # one shared QR when the factors are one array
    got = band_norm_2(left, left, coeffs)
    for g, dense in zip(got, _dense(left, left, coeffs)):
        assert g == pytest.approx(np.linalg.norm(dense, 2), rel=1e-10)


def test_band_mixed_norms_match_dense(small_grid, rng):
    left, right, coeffs = _factors(rng, small_grid.M, 10)
    got_2 = band_norm_2_to_inf(left, right, coeffs, small_grid, 4)
    with pytest.MonkeyPatch.context() as mp:     # tiles of 37: ragged ends
        mp.setattr(norms, "_BLOCK", 37)
        got_1 = band_norm_1_to_inf(left, right, coeffs, small_grid, 4)
    got_inf = band_norm_inf(left, right, coeffs, small_grid, 4)
    assert got_2.shape == got_1.shape == got_inf.shape == (3,)
    for g2, g1, ginf, dense in zip(got_2, got_1, got_inf,
                                   _dense(left, right, coeffs)):
        assert g2 == pytest.approx(op_norm_2_to_inf(dense, small_grid, 4),
                                   rel=1e-9)
        assert g1 == pytest.approx(op_norm_1_to_inf(dense, small_grid, 4),
                                   rel=1e-9)
        assert ginf == pytest.approx(
            op_norm_p(dense, small_grid, 4, np.inf), rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(k=st.integers(1, 20), t=st.integers(1, 5), chunk=st.integers(1, 64),
       same=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_band_norms_match_dense_property(grid, k, t, chunk, same, seed):
    """Each row of each stacked band norm is the dense norm of its
    left diag(c) right^T; with right = left, a (complex) symmetric band,
    band_norm_inf is the L^1 -> L^1 norm too."""
    left, right, coeffs = _factors(np.random.default_rng(seed), grid.M, k, t)
    if same:
        right = left
    got_2 = band_norm_2(left, right, coeffs)
    got_2inf = band_norm_2_to_inf(left, right, coeffs, grid, 4)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(norms, "_BLOCK", chunk)
        got_1inf = band_norm_1_to_inf(left, right, coeffs, grid, 4)
    got_inf = band_norm_inf(left, right, coeffs, grid, 4)
    for i, dense in enumerate(_dense(left, right, coeffs)):
        assert got_2[i] == pytest.approx(np.linalg.norm(dense, 2), rel=1e-9)
        assert got_2inf[i] == pytest.approx(
            op_norm_2_to_inf(dense, grid, 4), rel=1e-9)
        assert got_1inf[i] == pytest.approx(
            op_norm_1_to_inf(dense, grid, 4), rel=1e-9)
        assert got_inf[i] == pytest.approx(
            op_norm_p(dense, grid, 4, np.inf), rel=1e-12)
        if same:
            assert got_inf[i] == pytest.approx(
                op_norm_p(dense, grid, 4, 1), rel=1e-12)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(m=st.integers(1, 40), ka=st.integers(0, 12), kb=st.integers(1, 12),
       cplx=st.booleans(), same_a=st.booleans(), same_b=st.booleans(),
       scale=st.sampled_from([-2.5, -1.0, 0.5, 3.0]),
       seed=st.integers(0, 2 ** 32 - 1))
@example(m=30, ka=5, kb=7, cplx=False, same_a=True, same_b=True, scale=0.5,
         seed=0)
@example(m=30, ka=5, kb=7, cplx=True, same_a=True, same_b=True, scale=-1.0,
         seed=1)
@example(m=30, ka=5, kb=7, cplx=True, same_a=True, same_b=False, scale=3.0,
         seed=2)
@example(m=30, ka=0, kb=7, cplx=True, same_a=False, same_b=True, scale=0.5,
         seed=4)
@example(m=6, ka=12, kb=12, cplx=True, same_a=False, same_b=False,
         scale=-2.5, seed=3)
def test_low_rank_algebra_matches_dense_property(m, ka, kb, cplx, same_a,
                                                 same_b, scale, seed):
    """(a - s b).rows(keep) is the window of the dense a - s b, and its
    norm_2 LAPACK's 2-norm of that window, to 1e-12: real and complex
    factors, more columns than rows, and factors with right is left (one
    QR in norm_2)."""
    rng = np.random.default_rng(seed)

    def draw(k, same):
        left = rng.standard_normal((m, k))
        if cplx:
            left = left + 1j * rng.standard_normal((m, k))
        right = left if same else rng.standard_normal((m, k))
        coeffs = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        return LowRank(left, coeffs, right)

    a, b = draw(ka, same_a), draw(kb, same_b)
    keep = rng.random(m) < 0.7
    keep[0] = True
    got = (a - scale * b).rows(keep)
    want = (a.matrix - scale * b.matrix)[np.ix_(keep, keep)]
    assert np.allclose(got.matrix, want, rtol=0.0,
                       atol=1e-12 * np.max(np.abs(want)))
    assert got.norm_2() == pytest.approx(np.linalg.norm(want, 2), rel=1e-12)


def _one_shot_2(left, right, coeffs):
    """band_norm_2 with all T complex cores stacked at once."""
    rl = np.linalg.qr(left, mode="r")
    rr = rl if right is left else np.linalg.qr(right, mode="r")
    cores = rl @ (coeffs[:, :, None] * rr.T)
    return np.array([op_norm_2(core) for core in cores])


def _one_shot_2_to_inf(left, right, coeffs, grid, n):
    """band_norm_2_to_inf with per-t copies of whole factors."""
    thin = right.shape[1] < right.shape[0]
    rf = np.linalg.qr(right, mode="r") if thin else right
    rho = sector_weights(grid, n)
    out = np.empty(len(coeffs))
    for i, c in enumerate(coeffs):
        rows = sum(np.sum((part @ rf.T) ** 2, 1)
                   for part in (left * c.real, left * c.imag))
        out[i] = np.max(np.sqrt(rows) / rho)
    return out / np.sqrt(grid.dr)


def _one_shot_1_to_inf(left, right, coeffs, grid, n, chunk):
    """band_norm_1_to_inf with a fresh concatenated factor per t."""
    rho = sector_weights(grid, n)
    lw, rw = left / rho[:, None], right / rho[:, None]
    m = left.shape[0]
    out = np.empty(len(coeffs))
    for i, c in enumerate(coeffs):
        cr = np.concatenate([rw * c.real, rw * c.imag]).T
        out[i] = max(float(np.max(np.hypot(block[:, :m], block[:, m:])))
                     for block in (lw[s:s + chunk] @ cr
                                   for s in range(0, m, chunk)))
    return out / grid.dr


@pytest.mark.parametrize("k", [12, 97], ids=["narrow", "wider_than_M"])
@pytest.mark.parametrize("same", [True, False], ids=["same", "two"])
@pytest.mark.parametrize("order", ["C", "F"])
def test_streamed_band_norms_match_one_shot(rng, k, same, order):
    """T = 1..9 on M = 80 rows, past one row block of band_norm_2 and
    band_norm_2_to_inf: the mixed norms bit for bit, the spectral norm
    (real GEMMs in place of complex ones) to 1e-14 relative."""
    grid = RadialGrid(8.0, 80)
    assert grid.M > norms._BLOCK
    for t in range(1, 10):
        left, right, coeffs = _factors(rng, grid.M, k, t)
        left = np.asarray(left, order=order)
        right = left if same else np.asarray(right, order=order)
        assert np.allclose(band_norm_2(left, right, coeffs),
                           _one_shot_2(left, right, coeffs),
                           rtol=1e-14, atol=0.0)
        assert np.array_equal(
            band_norm_2_to_inf(left, right, coeffs, grid, 4),
            _one_shot_2_to_inf(left, right, coeffs, grid, 4))
        for chunk in (37, 256):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(norms, "_BLOCK", chunk)
                got = band_norm_1_to_inf(left, right, coeffs, grid, 4)
            assert np.array_equal(
                got, _one_shot_1_to_inf(left, right, coeffs, grid, 4, chunk))


def test_band_norm_2_working_set_is_one_core(rng, traced_peak):
    """T = 9 cores of a band wider than M: the stacked complex cores
    alone are 8.3 MB; the per-t build peaks under a third of them."""
    m, k, t = 240, 300, 9
    left, _, coeffs = _factors(rng, m, k, t)
    cores_bytes = t * m * m * 16
    peak = traced_peak(lambda: band_norm_2(left, left, coeffs))
    assert peak < cores_bytes / 3


def _ordered(arrays, order):
    return [np.asarray(a, order=order) for a in arrays]


@pytest.mark.parametrize("order", ["C", "F"])
def test_pruned_2_to_inf_finds_a_max_of_small_bound(rng, order):
    """The largest row sits in the row block of smallest top bound.  Rows
    64..127 are small, but for row 97, which lies along the right factor's
    top singular direction (bound and norm 0.5); every other row lies
    along its small ones (bounds up to about 1.9 outside the block, norms
    up to about 0.4).  So the max is in the last block taken, which a
    kernel stopping after the first block would never form, and which a
    bound on ||R||_2 under 0.75 of the true one would prune."""
    grid = RadialGrid(8.0, 150)
    assert grid.M > 2 * norms._BLOCK
    rho = sector_weights(grid, 4)
    rows = np.zeros((grid.M, 4))
    rows[:, 1:] = 1.0 + 0.1 * rng.random((grid.M, 3))
    rows[64:128] *= 0.1
    rows[97] = (0.5, 0.0, 0.0, 0.0)
    right = (np.linalg.qr(rng.standard_normal((grid.M, 4)))[0]
             * [1.0, 0.2, 0.2, 0.2])
    left, right = _ordered((rho[:, None] * rows, right), order)
    coeffs = np.exp(1j * rng.uniform(0, 2 * np.pi, (2, 4)))
    got = band_norm_2_to_inf(left, right, coeffs, grid, 4)
    for g, dense in zip(got, _dense(left, right, coeffs)):
        want = op_norm_2_to_inf(dense, grid, 4)
        assert want * np.sqrt(grid.dr) == pytest.approx(0.5)
        assert g == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("small_col", [False, True],
                         ids=["small_row", "small_row_and_column"])
def test_pruned_1_to_inf_finds_a_max_of_small_bound(rng, order, small_col):
    """The largest entry sits in the row block of smallest top bound (rows
    64..127 are small but for row 97), and with small_col also in the
    column block of smallest top norm (columns 64..127, but for 100).  The
    other rows live on coordinates 1 and 2 as (a, -a), the other columns
    as (b, b), so their entries vanish up to 1e-9 noise while their
    bounds reach about 2; the max, 1.0 or 0.25, is in the last row block
    (and column block) taken, which a kernel stopping at the first would
    never form."""
    grid = RadialGrid(8.0, 150)
    rho = sector_weights(grid, 4)
    noise = 1e-9 * rng.standard_normal((2, grid.M, 4))
    a, b = 1.0 + 0.1 * rng.random((2, grid.M))
    a[64:128] *= 0.1
    lw = noise[0] + np.outer(a, [0.0, 1.0, -1.0, 0.0])
    lw[97] = (0.5, 0.0, 0.0, 0.0)
    if small_col:
        b[64:128] *= 0.1
    rw = noise[1] + np.outer(b, [0.0, 1.0, 1.0, 0.0])
    rw[100 if small_col else 41] = ((0.5, 0.0, 0.0, 0.0) if small_col
                                    else (2.0, 1.0, 1.0, 0.0))
    left, right = _ordered((rho[:, None] * lw, rho[:, None] * rw), order)
    coeffs = np.full((1, 4), 0.6 + 0.8j)
    got = band_norm_1_to_inf(left, right, coeffs, grid, 4)
    dense = _dense(left, right, coeffs)[0]
    want = op_norm_1_to_inf(dense, grid, 4)
    assert want * grid.dr == pytest.approx(0.25 if small_col else 1.0)
    assert got[0] == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("weight, h", [("r", 0.25), ("r", 0.125),
                                       ("decaying", 1.0),
                                       ("decaying", 0.25)])
def test_2_to_inf_of_difference_bands_matches_dense(potential, profile,
                                                    weight, h):
    """band_norm_2_to_inf of a difference band bg - b0 (R = 32, M = 255),
    whose rows cancel, within 1e-13 of the dense norm: with the right
    weight <r> of lemma 2.3's 2.34 (k = 89, and k = 326 > M at h = 1/8),
    and with 4.6's decaying weight <r>^-1.525 at t = 16, 32 and 64.  The
    Gram form (left_r o c) G (left_r o c)^* read these between 6.6e-13 and
    1.1e-11 off."""
    grid = RadialGrid(32.0, 255)
    d = (build_G(grid, 4, potential).band(profile, h)
         - build_G0(grid, 4).band(profile, h))
    if weight == "r":
        right = d.vecs / weight_matrix(grid, 1.0)[:, None]
        coeffs = d.amps[None]
    else:
        right = weight_matrix(grid, 1.525)[:, None] * d.vecs
        coeffs = d.coeff(np.array([16.0, 32.0, 64.0]))
    assert (d.vecs.shape[1] > grid.M) == (h == 0.125)
    got = band_norm_2_to_inf(d.vecs, right, coeffs, grid, 4)
    for g, dense in zip(got, _dense(d.vecs, right, coeffs)):
        assert g == pytest.approx(op_norm_2_to_inf(dense, grid, 4),
                                  rel=1e-13, abs=0.0)


def test_lemma23_rows_match_dense_norms(small_grid, potential, profile):
    """Every lemma 2.3 row read from band factors against the dense norm
    of the M x M matrix it stands for (p0, pg, their difference d and the
    weighted copies), to 1e-12 relative.  The bands are symmetric, so the
    one p = 1 and p = inf figure matches both dense norms."""
    op0, op = build_G0(small_grid, 4), build_G(small_grid, 4, potential)
    h_set = (1.0, 0.5, 0.25, 0.125)
    rows = _lemma23_rows(small_grid, 4, op0, op, profile, h_set)
    ws = weight_matrix(small_grid, 1.0)
    for i, h in enumerate(h_set):
        p0, pg = phi_of_hsqrt(op0, profile, h), phi_of_hsqrt(op, profile, h)
        d = pg - p0
        want = {"2.26": op_norm_2(ws[:, None] * p0 / ws),
                "2.27": op_norm_2(ws[:, None] * pg / ws),
                "2.28": op_norm_2(d / ws),
                "2.32": op_norm_2_to_inf(p0, small_grid, 4),
                "2.33": op_norm_2_to_inf(pg, small_grid, 4),
                "2.34": op_norm_2_to_inf(d / ws, small_grid, 4)}
        for eid, dense in (("2.29", p0), ("2.30", pg), ("2.31", d)):
            for p in (1, np.inf):
                want[eid, p] = op_norm_p(dense, small_grid, 4, p)
        want["2.31", 2] = op_norm_2(d)
        for key, value in want.items():
            eid, p = key if isinstance(key, tuple) else (key, None)
            got = rows[eid] if p is None else rows[eid][p]
            assert got[i] == (h, pytest.approx(value, rel=1e-12, abs=0.0))


def test_band_norm_2_wider_than_grid(rng, traced_peak):
    """k > M: the factors are used as they are, with no QR and no core, so
    the norm matches LAPACK's dense 2-norm and the call's working set stays
    below one M x k factor (the Lanczos basis, at most M x M complex, is
    half of one here)."""
    m, k, t = 100, 400, 3
    left, right, coeffs = _factors(rng, m, k, t)
    for same in (True, False):
        r = left if same else right
        got = band_norm_2(left, r, coeffs)
        for g, dense in zip(got, _dense(left, r, coeffs)):
            assert g == pytest.approx(np.linalg.norm(dense, 2), rel=1e-12,
                                      abs=0.0)
        peak = traced_peak(lambda: band_norm_2(left, r, coeffs))
        assert peak < left.nbytes


def test_counts_record_the_work(grid, rng):
    """COUNTS: one Lanczos step per matvec, at most one Ritz solve per
    step, and the pruned norms' rows and entries formed against the T M
    rows and T M^2 entries in all."""
    before = dict(norms.COUNTS)
    a = rng.standard_normal((12, 12))
    calls = []
    operator_two_norm(lambda v: calls.append(1) or a @ v,
                      lambda v: a.T @ v, 12)
    left, right, coeffs = _factors(rng, grid.M, 5, 3)
    band_norm_2_to_inf(left, right, coeffs, grid, 4)
    band_norm_1_to_inf(left, right, coeffs, grid, 4)
    done = {key: norms.COUNTS[key] - before[key] for key in before}
    assert done["norms.power_iterations"] == len(calls) > 0
    assert 0 < done["norms.ritz_solves"] <= len(calls)
    assert done["norms.rows_2_to_inf_total"] == 3 * grid.M
    assert done["norms.entries_1_to_inf_total"] == 3 * grid.M ** 2
    assert 0 < done["norms.rows_2_to_inf"] <= 3 * grid.M
    assert 0 < done["norms.entries_1_to_inf"] <= 3 * grid.M ** 2
