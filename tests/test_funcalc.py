from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavedecay import funcalc
from wavedecay.funcalc import (_SPAN, AlmostAnalytic, _certified_keep,
                               _chebyshev_count, _chi_c, _chi_c_prime,
                               _coeff_rows, _compress, _direct_rows, _hs_mesh,
                               _in_float_range, _lemma23_rows,
                               _onto_chebyshev, _resolvent_sum, hs_multiplier,
                               phi_of_hsqrt, verify_lemma23)
from wavedecay.propagator import wave_multiplier
from wavedecay.radialop import build_G, build_G0

N = 4


@pytest.fixture(scope="module")
def op(small_grid, potential):
    return build_G(small_grid, N, potential)


def test_extension_restricts_to_psi(profile):
    aa = AlmostAnalytic(profile, 4)
    x = np.linspace(0.5, 5.0, 40)
    # psi(x) = profile(sqrt x)
    assert np.allclose(aa.psi_derivs(0, x)[0], profile(np.sqrt(x)))
    assert aa.support == (1.0, 4.0)


def test_extension_vanishes_far_from_axis(profile):
    aa = AlmostAnalytic(profile, 4)
    z = np.linspace(1.0, 4.0, 9) + 1.5j
    assert np.all(aa.dbar(z) == 0.0)


def test_dbar_order_near_axis(profile):
    """|dbar psi~| = O(|Im z|^order) approaching the spectrum."""
    order = 5
    aa = AlmostAnalytic(profile, order)
    x = np.linspace(1.1, 3.9, 25)
    s1 = np.max(np.abs(aa.dbar(x + 1e-2j)))
    s2 = np.max(np.abs(aa.dbar(x + 2e-2j)))
    assert s2 / s1 == pytest.approx(2.0 ** order, rel=0.1)


def _dbar_per_node(aa, z):
    """dbar from its definition with every factor evaluated at every node,
    nothing shared between nodes."""
    x, y = z.real, z.imag
    psi = aa.psi_derivs(aa.order + 1, x)
    taylor = np.zeros(z.shape, dtype=complex)
    for k in range(aa.order + 1):
        taylor += psi[k] * (1j * y) ** k / factorial(k)
    lead = (_chi_c(y) * psi[aa.order + 1]
            * (1j * y) ** aa.order / factorial(aa.order))
    return 0.5 * lead + 0.5j * _chi_c_prime(y) * taylor


def test_dbar_gathers_exactly(profile):
    """dbar evaluates each factor once per distinct Re z and Im z; on the
    quadrature mesh (far fewer distinct x and y than nodes) and on a 2-D
    array of z with repeated x that is bit for bit the evaluation at every
    node.  Most of the 2-D y lie in the cutoff band 1/2 < Im z < 1, where
    chi_c is a Gauss sum (``profiles._bump_cdf``); that sum is per row, so
    its last bit does not depend on how many values share the call."""
    aa = AlmostAnalytic(profile, 8)
    zs, _ = _hs_mesh(aa, 1e-7)
    assert np.unique(zs.real).size < zs.size / 10
    assert np.array_equal(aa.dbar(zs), _dbar_per_node(aa, zs))
    for ys in ([0.01, 0.1, 0.3, 0.45, 0.55, 0.7, 0.85, 0.95],
               [0.6, 0.75, 0.9], [0.52, 0.65, 0.8, 0.99]):
        grid = (np.linspace(0.9, 4.2, 7)[None, :]
                + 1j * np.array(ys)[:, None])
        z2 = np.concatenate([grid, grid[:, ::-1]], axis=1)
        got = aa.dbar(z2)
        assert got.shape == z2.shape
        assert np.array_equal(got, _dbar_per_node(aa, z2))
        assert np.array_equal(got, np.vectorize(aa.dbar)(z2))


def test_order_validation(profile):
    with pytest.raises(ValueError):
        AlmostAnalytic(profile, -1)


def test_quadrature_route_matches_eigen(op, profile):
    """Complex-plane resolvent quadrature vs the eigendecomposition."""
    got = hs_multiplier(op, profile, 1.0, order=8, tol=1e-7)
    want = phi_of_hsqrt(op, profile, 1.0)
    assert np.linalg.norm(got - want, 2) <= 1e-6


def test_quadrature_route_h_half(op, profile):
    got = hs_multiplier(op, profile, 0.5, order=8, tol=1e-7)
    want = phi_of_hsqrt(op, profile, 0.5)
    assert np.linalg.norm(got - want, 2) <= 1e-6


def _mesh_nodes(profile, tol):
    aa = AlmostAnalytic(profile, 8)
    zs, ws = _hs_mesh(aa, tol)
    return zs, aa.dbar(zs) * ws


def _bounds(zs, vals):
    # node k moves the 2-norm of the sum by at most (2/pi) |c_k| / Im z_k
    return (2.0 / np.pi) * np.abs(vals) / zs.imag


def test_certified_drop_on_the_mesh(profile):
    """On criterion 6's mesh (order 8, tol 1e-7): the dropped nodes'
    bounds sum to at most the budget 1e-6 tol, every zero-weight node is
    among them, and no kept node's bound is below a dropped one's."""
    tol = 1e-7
    zs, vals = _mesh_nodes(profile, tol)
    keep = _certified_keep(zs, vals, 1e-6 * tol)
    bound = _bounds(zs, vals)
    assert bound[~keep].sum() <= 1e-6 * tol
    assert not keep[vals == 0].any()
    assert bound[~keep].max() <= bound[keep].min()
    assert (zs.size, np.count_nonzero(vals), keep.sum()) == (25890, 22998,
                                                              16138)


def test_certified_drop_weighs_by_imaginary_part():
    """A node with the smallest weight but Im z = 1e-6 has the largest
    bound and is kept; nodes of larger weight far from the axis go.  A
    rule on |c| alone would drop the first node instead."""
    zs = np.array([2.0 + 1e-6j, 2.0 + 0.5j, 3.0 + 0.5j, 2.5 + 0.7j])
    vals = np.array([1e-12, 1e-9, 0.0, 2e-9 + 1e-9j])
    keep = _certified_keep(zs, vals, 1e-8)
    assert keep.tolist() == [True, False, False, False]
    assert _bounds(zs, vals)[~keep].sum() <= 1e-8
    # a budget below the smallest nonzero bound drops the zero weight only
    assert _certified_keep(zs, vals, 1e-10).tolist() == [True, True, False,
                                                         True]


@pytest.mark.parametrize("h", [1.0, 0.5])
def test_certified_drop_moves_the_sum_within_budget(op, profile, h):
    """hs_multiplier against the same sum over every nonzero-weight node:
    they differ by at most the budget 1e-6 tol in 2-norm."""
    tol = 1e-7
    zs, vals = _mesh_nodes(profile, tol)
    nz = vals != 0
    full = (2.0 / np.pi) * _resolvent_sum(h ** 2 * op.diag,
                                          h ** 2 * op.offdiag,
                                          zs[nz], vals[nz])
    got = hs_multiplier(op, profile, h, order=8, tol=tol)
    assert np.linalg.norm(got - full, 2) <= 1e-6 * tol


def test_onto_chebyshev_is_exact_below_degree_n(rng):
    """sum_a c[a] f(x[a]) = sum_m C_m f(p_m) for every f of degree < n,
    with 2-D weights and nodes that include both ends of the interval,
    where x[a] is a Chebyshev point and the barycentric quotient is 0/0;
    at degree n it is not exact."""
    n, lo, hi = 9, 1.0, 4.0
    x = np.concatenate([[lo], rng.uniform(lo, hi, 28), [hi]])
    c = rng.standard_normal((30, 2)) + 1j * rng.standard_normal((30, 2))
    p, cm = _onto_chebyshev(x, c, lo, hi, n)
    assert (p[0], p[-1]) == (hi, lo) and cm.shape == (n, 2)
    for k in range(n + 1):
        want = ((x - 2.5) / 1.5) ** k @ c
        got = ((p - 2.5) / 1.5) ** k @ cm
        assert np.allclose(got, want, rtol=0.0, atol=1e-13) == (k < n)


@pytest.mark.parametrize("across, half, reach", [(True, 1.5, 0.05),
                                                 (True, 1.5, 0.5),
                                                 (False, 0.25, 0.75)])
def test_chebyshev_count_bounds_the_scalar_resolvent(across, half, reach):
    """The certified count's interpolant of 1/(lam - z), z on a
    horizontal line at height reach over [1, 4] or on the vertical
    segment Im z in [1/2, 1], is off by at most the bound it states, for
    lam across the real axis: the resolvent's entries in an
    eigenbasis."""
    n, bound = _chebyshev_count(1e-10, half, reach, across)
    assert bound <= 1e-10
    lo, hi = (1.0, 4.0) if across else (0.5, 1.0)
    s = np.linspace(lo, hi, 1001)
    p, basis = _onto_chebyshev(s, np.eye(s.size, dtype=complex), lo, hi,
                               n)
    for lam in np.linspace(0.0, 5.0, 51):
        def f(v):
            return 1.0 / (lam - (v + 1j * reach if across
                                 else 2.5 + 1j * v))
        assert np.max(np.abs(f(p) @ basis - f(s))) <= bound


@pytest.mark.parametrize("h", [1.0, 0.5])
def test_chebyshev_compression_moves_the_sum_within_its_share(op, profile,
                                                              h):
    """The mesh's weights moved onto Chebyshev points, before the drop,
    against the sum over every nonzero-weight node: within the certificate
    in 2-norm, and the certificate within its share, half the budget
    1e-6 tol.  The certificate and the bounds the drop then leaves out sum
    to at most the budget.  Criterion 6's mesh goes from 25,890 nodes onto
    14,450, of which 11,117 are kept."""
    tol = 1e-7
    zs, vals = _mesh_nodes(profile, tol)
    nz = vals != 0
    cz, cvals, moved = _compress(zs, vals, (1.0, 4.0), 1e-6 * tol)
    diag, off = h ** 2 * op.diag, h ** 2 * op.offdiag
    full = (2.0 / np.pi) * _resolvent_sum(diag, off, zs[nz], vals[nz])
    got = (2.0 / np.pi) * _resolvent_sum(diag, off, cz, cvals)
    assert moved <= 0.5e-6 * tol
    assert np.linalg.norm(got - full, 2) <= moved
    keep = _certified_keep(cz, cvals, 1e-6 * tol - moved)
    assert moved + _bounds(cz, cvals)[~keep].sum() <= 1e-6 * tol
    assert (cz.size, keep.sum()) == (14450, 11117)


def test_counts_of_the_criterion_6_sum(op, profile):
    """COUNTS after one criterion-6 call: the nodes summed and dropped,
    14,450 between them, the lines moved onto Chebyshev points, and the
    rows of the sum computed directly and marched.  The 38 direct rows are
    the anchors alone, row 0, the pairs (a - 1, a) for a = 12, ..., 144
    and 147, and rows 147 to 158: no segment falls back."""
    before = dict(funcalc.COUNTS)
    hs_multiplier(op, profile, 1.0, order=8, tol=1e-7)
    assert {key: funcalc.COUNTS[key] - before[key] for key in before} == {
        "funcalc.nodes_summed": 11117, "funcalc.nodes_dropped": 3333,
        "funcalc.lines_compressed": 32, "funcalc.rows_direct": 38,
        "funcalc.rows_marched": 121}


def _anchors(m):
    """The rows _resolvent_sum computes directly when no segment falls
    back: row 0, the pairs (a - 1, a) for a a positive multiple of _SPAN
    below m - _SPAN and for a = m - _SPAN, and the last _SPAN rows."""
    bottom = max(m - _SPAN, 0)
    pairs = [*range(_SPAN, bottom, _SPAN), bottom]
    return sorted({0, *pairs, *(a - 1 for a in pairs if a),
                   *range(bottom, m)})


def _every_row_direct(diag, off, zs, cs, block=1500):
    """The sum with every row computed directly, mirrored below the
    diagonal: the slow path the march replaces."""
    rows = np.triu(_direct_rows(diag, off[0], zs, cs, np.arange(diag.size),
                                block))
    return rows + np.triu(rows, 1).T


@pytest.mark.parametrize("h", [1.0, 0.5])
def test_marched_sum_matches_every_row_direct(op, profile, h):
    """On criterion 6's kept nodes: the marched sum against the sum with
    every row computed directly, within 1e-12 of the largest entry, and
    its anchor rows, on and right of the diagonal, bit for bit the rows
    the direct routine gives.  (Against the every-row GEMM they may differ
    in the last bit: a threaded BLAS splits GEMMs of other shapes
    otherwise.)"""
    tol = 1e-7
    zs, vals = _mesh_nodes(profile, tol)
    cz, cvals, moved = _compress(zs, vals, (1.0, 4.0), 1e-6 * tol)
    keep = _certified_keep(cz, cvals, 1e-6 * tol - moved)
    cz, cvals = cz[keep], cvals[keep]
    diag, off = h ** 2 * op.diag, h ** 2 * op.offdiag
    got = _resolvent_sum(diag, off, cz, cvals)
    want = _every_row_direct(diag, off, cz, cvals)
    assert np.array_equal(got, got.T)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    anchors = _anchors(diag.size)
    direct = _direct_rows(diag, off[0], cz, cvals, anchors, 1500)
    for i, row in zip(anchors, direct):
        assert np.array_equal(got[i, i:], row[i:])


@pytest.mark.parametrize("kind", ["steep top", "ramp"])
def test_steep_diagonal_falls_back_to_direct_rows(rng, kind):
    """Two diagonals on which marching would lose digits, with e = 0.1 and
    m = 80: 2e + 1e3 / j^2, far steeper than the centrifugal term, varies
    by more than 2e along the top segments, which are not marched; the
    ramp 2e + 0.05 e j varies by less, but grows the march's round-off
    on far columns past the check.  Either way some segments have their
    rows computed directly, and the sum matches sums of dense inverses to
    1e-12 of the largest entry."""
    m, e = 80, 0.1
    j = np.arange(1, m + 1)
    diag = 2.0 * e + (1e3 / j ** 2 if kind == "steep top" else 0.05 * e * j)
    off = np.full(m - 1, e)
    zs = rng.uniform(0.0, 1.4, 12) + 1j * 10.0 ** rng.uniform(-3.0, 0.0, 12)
    cs = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    t = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    want = sum(c * np.linalg.inv(t - z * np.eye(m)) for z, c in zip(zs, cs))
    before = dict(funcalc.COUNTS)
    got = _resolvent_sum(diag, off, zs, cs, block=5)
    direct = funcalc.COUNTS["funcalc.rows_direct"] - before[
        "funcalc.rows_direct"]
    marched = funcalc.COUNTS["funcalc.rows_marched"] - before[
        "funcalc.rows_marched"]
    assert np.max(np.abs(got - want.real)) <= 1e-12 * np.max(np.abs(want))
    assert direct > len(_anchors(m)) and direct + marched == m


@pytest.mark.parametrize("block", [1, 7, 40])
def test_resolvent_sum_matches_dense_inverse(op, rng, block):
    """The semiseparable sum against sum_k c_k (T - z_k)^{-1} built from
    dense inverses, with blocks of one node, a ragged block and all nodes."""
    m = op.diag.size
    zs = (rng.uniform(0.0, 8.0, 40) + 1j * rng.uniform(1e-3, 1.0, 40))
    cs = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    t = (np.diag(op.diag) + np.diag(op.offdiag, 1)
         + np.diag(op.offdiag, -1))
    want = sum(c * np.linalg.inv(t - z * np.eye(m)) for z, c in zip(zs, cs))
    got = _resolvent_sum(op.diag, op.offdiag, zs, cs, block=block)
    assert got.dtype == np.float64
    assert np.max(np.abs(got - want.real)) <= 1e-12 * np.max(np.abs(want))


def test_resolvent_sum_short_last_block(op, rng):
    """Blocks of 5 over 11 nodes: the last block works on the leading
    columns of the arrays the full blocks used, and the directly computed
    rows are bit for bit the sum of one call per block, each on arrays of
    its own; the sum in one block of all 11 nodes agrees to round-off (its
    GEMM sums in another order)."""
    zs = rng.uniform(0.0, 8.0, 11) + 1j * rng.uniform(1e-3, 1.0, 11)
    cs = rng.standard_normal(11) + 1j * rng.standard_normal(11)
    e, rows = op.offdiag[0], np.arange(3, op.diag.size, 7)
    got = _direct_rows(op.diag, e, zs, cs, rows, 5)
    per_block = 0.0
    for part in (slice(0, 5), slice(5, 10), slice(10, 11)):
        per_block = per_block + _direct_rows(op.diag, e, zs[part], cs[part],
                                             rows, 5)
    assert np.array_equal(got, per_block)
    got = _resolvent_sum(op.diag, op.offdiag, zs, cs, block=5)
    one = _resolvent_sum(op.diag, op.offdiag, zs, cs, block=11)
    assert np.max(np.abs(got - one)) <= 1e-14 * np.max(np.abs(one))


def test_resolvent_sum_raises_outside_float_range():
    """A diagonal that dwarfs the off-diagonal drives the transfer products
    (-e / l)^j below the normal floats: an error naming the node, not a
    silent NaN."""
    m = 200
    with pytest.raises(FloatingPointError,
                       match=r"z = 1\+0\.1j .* max \|log P\| = 2749\."):
        _resolvent_sum(np.full(m, 1e6), np.ones(m - 1),
                       np.array([5e5 + 1j, 1.0 + 0.1j]),
                       np.array([1.0, 1.0 + 0j]))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(m=st.integers(2, 80), nodes=st.integers(1, 12),
       block=st.integers(1, 12), e=st.floats(0.1, 4.0),
       negative_e=st.booleans(), top=st.floats(0.0, 1e3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_resolvent_sum_matches_dense_inverse_property(m, nodes, block, e,
                                                      negative_e, top, seed):
    """The boundary-solution sum against sums of dense inverses to 1e-12
    of the largest entry: random sizes and blocks, either sign of the
    off-diagonal, a diagonal with a steep top like the centrifugal term
    (top / j^2) over a random potential, Re z across the spectrum and
    Im z in [1e-3, 1]."""
    rng = np.random.default_rng(seed)
    diag = (2.0 * e + top / np.arange(1, m + 1) ** 2
            + rng.uniform(0.0, 1.0, m))
    off = np.full(m - 1, -e if negative_e else e)
    zs = (rng.uniform(0.0, 4.0 * e + 1.0, nodes)
          + 1j * 10.0 ** rng.uniform(-3.0, 0.0, nodes))
    cs = rng.standard_normal(nodes) + 1j * rng.standard_normal(nodes)
    t = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    want = sum(c * np.linalg.inv(t - z * np.eye(m)) for z, c in zip(zs, cs))
    got = _resolvent_sum(diag, off, zs, cs, block=block)
    assert np.max(np.abs(got - want.real)) <= 1e-12 * np.max(np.abs(want))


def test_coeff_rows_are_the_divided_coefficients(op, rng):
    """The sweep's coefficient rows, formed one at a time as a product
    with 1 / e, against (z - d) / e over the whole block, top half on the
    rows and bottom half on reversed rows, bit for bit."""
    z = rng.uniform(0.0, 8.0, 9) + 1j * rng.uniform(1e-3, 1.0, 9)
    e = op.offdiag[0]
    top = (z - op.diag[:, None]) / e
    got = np.array([row.copy() for row in _coeff_rows(op.diag, e, z)])
    assert np.array_equal(got, np.concatenate([top, top[::-1]], axis=1))


@pytest.mark.parametrize("row", [0, 63, 64, 149])
@pytest.mark.parametrize("bad", [0.0, 1e-310, np.inf, np.nan])
def test_range_check_sees_every_row(row, bad):
    """The chunked range check finds one value out of the normal floats
    wherever it is, the short last chunk included."""
    f = np.full((150, 6), 1.0 + 1j)
    buf = np.empty((64, 8))
    assert _in_float_range(f, buf)
    f[row, 5] = bad
    assert not _in_float_range(f, buf)


def test_resolvent_sum_raises_on_huge_bottom_rows():
    """A diagonal that dwarfs the off-diagonal in the bottom rows only: the
    top boundary solution leaves the floats there, and the bottom one
    starts there; an error naming the node with the larger |log P|."""
    m = 200
    diag = np.ones(m)
    diag[-60:] = 1e6
    with pytest.raises(FloatingPointError,
                       match=r"z = 3\+1j .* max \|log P\| = 930\."):
        _resolvent_sum(diag, np.ones(m - 1), np.array([1.0 + 0.1j, 3.0 + 1j]),
                       np.array([1.0, 1.0 + 0j]))


def test_phi_of_hsqrt_is_t0_propagator(op, profile):
    mat = wave_multiplier(op, profile, 1.0, 0.0).matrix
    got = phi_of_hsqrt(op, profile, 1.0)
    assert got.dtype == np.float64
    assert np.allclose(got, mat.real, atol=1e-12)


def test_lemma23_orthonormal_rows_match_dense(small_grid, potential,
                                              profile):
    """The p = 2 rows of 2.29 and 2.30, max |a| of the band, against the
    LAPACK 2-norm of the dense band at each h, to 1e-13 relative."""
    op0, op = build_G0(small_grid, N), build_G(small_grid, N, potential)
    h_set = (1.0, 0.5, 0.25, 0.125)
    rows = _lemma23_rows(small_grid, N, op0, op, profile, h_set)
    for eid, oper in (("2.29", op0), ("2.30", op)):
        assert [h for h, _ in rows[eid][2]] == list(h_set)
        for h, got in rows[eid][2]:
            want = np.linalg.norm(phi_of_hsqrt(oper, profile, h), 2)
            assert got == pytest.approx(want, rel=1e-13, abs=0.0)


def test_cutoff_family_report(small_grid, potential, profile):
    op0 = build_G0(small_grid, N)
    op = build_G(small_grid, N, potential)
    rep = verify_lemma23(small_grid, N, op0, op, profile,
                         (1.0, 0.5, 0.25, 0.125))
    # weighted cutoffs bounded in h
    assert rep["2.26"]["passed"] and rep["2.27"]["passed"]
    for p in ("1", "2", "inf"):
        assert rep["2.29"][p]["passed"]
        assert rep["2.30"][p]["passed"]
    # the difference gains powers of h; the h = 1 end of the window is
    # saturated (relative perturbation 2 h^2 is order one there), so the
    # windowed slope sits below the asymptotic rate and the report must
    # say so honestly
    assert rep["2.28"]["fitted_exponent"] > 1.3
    assert rep["2.28"]["passed"] == (
        abs(rep["2.28"]["fitted_exponent"] - 2.0) <= 0.3)
    assert rep["2.31"]["2"]["fitted_exponent"] > 0.7
    assert rep["2.31"]["2"]["passed"] == (
        abs(rep["2.31"]["2"]["fitted_exponent"] - 2.0) <= 0.3)
    # L2 -> Linf loses h^{-n/2}
    assert rep["2.32"]["passed"]
    assert rep["2.32"]["fitted_exponent"] == pytest.approx(-2.0, abs=0.3)
    assert rep["2.33"]["passed"]
    assert "_caveat" in rep
