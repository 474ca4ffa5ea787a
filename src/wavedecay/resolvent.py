"""The outgoing resolvent on the radial sector.

The boundary values R^{+/-}(lambda) of a finite grid's resolvent do not
exist (the discrete spectrum is real), so the primary route goes through
the continuum free Green kernel on the Liouville half line,

    G0^+(r, r'; lambda) = (i pi / 2) sqrt(r r')
                          J_nu(lambda r_<) H_nu^(1)(lambda r_>),

and the Lippmann-Schwinger solve R = (I + R0 V)^{-1} R0 = (A0^{-1} + V)^{-1}:
the free Green matrix A0 (dr weight folded in) is semiseparable, so A0^{-1}
is tridiagonal, the bands built for a chunk of lambdas at once.  Its
inverse R is semiseparable in turn, R_ij = P_i Q_j / P_1 for i <= j, with
P and Q the perturbed regular and outgoing solutions: one zgttrf and one
refined solve on two columns per lambda, then every apply is two running
sums.  ``COUNTS`` holds the zgttrf calls and the right-hand-side columns
through zgttrs.  Only the dense oracle ``free_green_matrix`` is M x M; the
discrete matrix enters only in the complex-shift cross-check.  R^- is
never formed: V is real, so at real lambda it is conj(R^+).
"""

from __future__ import annotations

from functools import partial

import numpy as np
from scipy.linalg import get_lapack_funcs

from .norms import operator_two_norm
from .radialop import build_G, weight_matrix
from .specfun import bessel_jh

__all__ = [
    "EPS",
    "free_green_matrix",
    "ls_sweep",
    "resolvent_difference_vector",
    "la_norm_scan",
    "complex_shift_compare",
]

EPS = 0.05
SCAN_S = 0.5 + EPS      # the scans' weight <x>^{-SCAN_S}
TAYLOR_TERMS = 18       # of the series for a cancelling cross product
CHUNK = 1 << 14         # lambda x M entries of the bands built at once

_GTTRF, _GTTRS = get_lapack_funcs(("gttrf", "gttrs"), dtype=complex)
# zgttrf calls and right-hand-side columns through zgttrs
COUNTS = {"resolvent.lu_factors": 0, "resolvent.lu_solves": 0}


def _bessel_pair(grid, n, lam):
    """u1 = sqrt(r) J_nu(lam r), u2 = sqrt(r) H_nu^(1)(lam r), of shape
    lam.shape + (M,) for a scalar or an array lam.  Complex lam only with
    Im lam >= 0 (the analytic continuation)."""
    lam = np.asarray(lam)
    if np.iscomplexobj(lam) and np.any(lam.imag < 0):
        raise ValueError("complex frequency must have Im >= 0")
    if np.isrealobj(lam) and np.any(lam <= 0):
        raise ValueError("frequency must be > 0")
    j, h = bessel_jh((n - 2) / 2.0, lam[..., None] * grid.nodes)
    root = np.sqrt(grid.nodes)
    return root * j, root * h


def free_green_matrix(grid, n, lam):
    """Dense outgoing free resolvent matrix A0 (dr weight included): the
    test oracle of the banded solve."""
    u1, u2 = _bessel_pair(grid, n, lam)
    low = np.tril(np.outer(u2, u1))          # i >= j: r_i = r_>
    up = np.triu(np.outer(u1, u2), k=1)      # i <  j: r_i = r_<
    return 0.5j * np.pi * grid.dr * (low + up)


def _inverse_green(grid, n, lam):
    """(off, diag, u1, u2, c) for a scalar or an array lam, each array of
    shape lam.shape + (M - 1,) or (M,): A0^{-1} is the symmetric tridiagonal
    with off-diagonal off and diagonal diag, for A0 = c (tril(u2 u1^T) +
    triu(u1 u2^T, 1)), c = (i pi / 2) dr.  With D_i, E_i the cross
    products u1_i u2_j - u1_j u2_i, j = i + 1, i + 2, A0^{-1} has
    off-diagonal 1 / (c D_i), diagonal -E_{i-1} / (c D_{i-1} D_i) and ends
    -u1_2 / (c u1_1 D_1), -u2_{M-1} / (c u2_M D_{M-1}).  Cross products
    come from J and H directly, except where d = lam (r_j - r_i) is small
    against a = lam r_i, |d| <= min(1, |a| / 8): there they cancel and are
    i sqrt(r_i r_j) (2 / (pi a)) phi(a + d), phi the Bessel solution
    with phi(a) = 0, phi'(a) = 1 (the J, Y Wronskian is 2 / (pi a)), by 18
    Taylor terms in d: phi(a + d) / a = sum_k b_k (d / a)^k, b_0 = 0, b_1 = 1,
    (k + 2)(k + 1) b_{k+2} = -[(2k + 1)(k + 1) b_{k+1} + (k^2 - nu^2 + a^2) b_k
    + a^2 (2 b_{k-1} + b_{k-2})]; b_k a^(1 - k) are the Taylor coefficients.
    Every lam of an array takes the same operations as a scalar lam, so the
    two agree bit for bit."""
    u1, u2 = _bessel_pair(grid, n, lam)
    lam = np.asarray(lam)[..., None]
    r, m, c = grid.nodes, grid.M, 0.5j * np.pi * grid.dr
    a2 = (lam * r[:-1]) ** 2
    b = [0.0 * a2] * 3 + [1.0 + 0.0 * a2]     # b_-2, b_-1, b_0, b_1
    for k in range(TAYLOR_TERMS - 2):
        b.append(-((2 * k + 1) * (k + 1) * b[k + 3]
                   + (k * k - (n - 2) ** 2 / 4.0 + a2) * b[k + 2]
                   + a2 * (2.0 * b[k + 1] + b[k])) / ((k + 2) * (k + 1)))
    x = np.outer((1.0, 2.0), grid.dr / r[:-1])  # d / a for j = i + 1, i + 2
    psi = 0.0 * x
    for bk in b[:1:-1]:                         # Horner, as polyval sums
        psi = bk[..., None, :] + psi * x
    d1, d2 = (np.where((s * np.abs(lam) * grid.dr <= 1.0)
                       & (x[s - 1, :m - s] <= 0.125),
                       2j / np.pi * np.sqrt(r[:-s] * r[s:])
                       * psi[..., s - 1, :m - s],
                       u1[..., :-s] * u2[..., s:] - u1[..., s:] * u2[..., :-s])
              for s in (1, 2))
    diag = np.empty(u1.shape, complex)
    diag[..., 1:-1] = -d2 / (c * d1[..., :-1] * d1[..., 1:])
    diag[..., 0] = -u1[..., 1] / (c * u1[..., 0] * d1[..., 0])
    diag[..., -1] = -u2[..., -2] / (c * u2[..., -1] * d1[..., -1])
    return 1.0 / (c * d1), diag, u1, u2, c


def _factor(off, diag, lam):
    """zgttrf's LU of the symmetric tridiagonal (off, diag): the leading
    arguments of zgttrs.  An exactly singular pivot raises
    numpy.linalg.LinAlgError naming lam."""
    COUNTS["resolvent.lu_factors"] += 1
    *lu, info = _GTTRF(off, diag, off)
    if info > 0:
        raise np.linalg.LinAlgError(f"lambda {lam}: singular tridiagonal")
    return lu


def _lu_solve(lu, b, overwrite_b=False):
    """zgttrs on b of shape (M,) or on the columns of b (M, K)."""
    COUNTS["resolvent.lu_solves"] += b.size // len(b)
    return _GTTRS(*lu, b, overwrite_b=overwrite_b)[0]


def _solvers(grid, n, potential, lams):
    """(b -> R^+(lam) b, u1) for each lam in turn, for b of shape (M,)
    or (M, K), with the bands of up to CHUNK // M lams built at once.
    R = (A0^{-1} + V)^{-1} inverts an irreducible complex-symmetric
    tridiagonal, so it is semiseparable: R_ij = P_i Q_j / P_1 for i <= j,
    with P = R e_M the perturbed regular solution, Q = R e_1 the perturbed
    outgoing one and P_1 = R_1M = Q_M.  Per lam: one zgttrf and one
    _refined_solve on the two columns [e_M, e_1] (two zgttrs on 2 columns
    each).  Every apply is then two running sums, R b = Q cumsum(P b) +
    P (the cumsum of Q b from the end, excluding i), over P_1: O(M K), no
    zgttrs on b.  On the tests' grid it is within 2.4e-15 (Frobenius,
    relative) of the dense LU, real lam and Im lam <= 3.  R_1M ~
    e^{-Im lam R}, so the form has a range: a zero or subnormal P_1, or a
    non-finite P or Q / P_1, raises ValueError.  A singular system raises
    numpy.linalg.LinAlgError, a non-finite one (Bessel values or V outside
    the float range) ValueError, all naming lam; so does a potential
    specified for another dimension than n."""
    potential.check_dimension(n)
    v = potential(grid.nodes)
    lams = np.atleast_1d(lams)
    step = max(1, CHUNK // grid.M)
    ends = np.zeros((grid.M, 2), complex, order="F")
    ends[-1, 0] = ends[0, 1] = 1.0
    for start in range(0, lams.size, step):
        chunk = lams[start:start + step]
        offs, diags, u1s, u2s, c = _inverse_green(grid, n, chunk)
        diags += v
        finite = np.isfinite(offs).all(1) & np.isfinite(diags).all(1)
        for lam, off, diag, u1, u2, ok in zip(chunk, offs, diags, u1s, u2s,
                                              finite):
            if not ok:
                raise ValueError(f"lambda {lam}: A0^-1 + V is not finite")
            p, q = _refined_solve(lam, _factor(off, diag, lam), v, u1, u2, c,
                                  ends).T
            with np.errstate(over="ignore", invalid="ignore",
                             divide="ignore"):
                q = q / p[0]
            if not (abs(p[0]) >= np.finfo(float).tiny
                    and np.isfinite(p).all() and np.isfinite(q).all()):
                raise ValueError(f"lambda {lam}: generators out of range "
                                 f"(R_1M = {p[0]})")
            yield partial(_generator_apply, p, q), u1


def _refined_solve(lam, lu, v, u1, u2, c, b):
    """R b for b (M, K) by the banded solve x of (A0^{-1} + V) x = b and one
    refinement step.  The rows of A0^{-1} nearly cancel, so x is off by
    about eps ||A0^{-1}|| ||R|| (up to 6e-13 against the dense LU); the
    step against A0 itself takes that to eps: z = A0 (b - V x) has
    (I + A0 V)(x - R b) = x - z, so R b = z - R V (z - x).  A0 is c times
    the generator form of u1 and u2, applied by _generator_apply.  A
    non-finite refinement right-hand side raises ValueError naming lam."""
    # x, y, z are (K, M) rows; fix.T is Fortran-order, solved in place
    x = _lu_solve(lu, b).T
    y = b.T - v * x
    z = c * _generator_apply(u1, u2, y.T).T
    fix = v * (z - x)
    if not np.isfinite(fix).all():
        raise ValueError(f"lambda {lam}: R b is not finite")
    z -= _lu_solve(lu, fix.T, overwrite_b=True).T
    return z.T


def _generator_apply(p, q, b):
    """S b = q cumsum(p b) + p (the reverse cumsum of q b from i + 1 on),
    with S = tril(q p^T) + triu(p q^T, 1): R for the generators p = P and
    q = Q / P_1 of _solvers, A0 / c for p = u1 and q = u2.  b is taken as
    (M, K) columns and both sums run down axis 0; the reverse one is
    written through a reversed view of q b's own rows, so the suffix sums
    read in forward order.  The generator is the first operand of every
    product, as the rounding of a fused complex multiply depends on it."""
    cols = b.reshape(p.size, -1)
    out = q[:, None] * np.cumsum(p[:, None] * cols, axis=0)
    qb = q[:, None] * cols
    np.cumsum(qb[:0:-1], axis=0, out=qb[:0:-1])
    out[:-1] += p[:-1, None] * qb[1:]
    return out.reshape(b.shape)


def _solver(grid, n, potential, lam):
    """_solvers for the one lam."""
    return next(_solvers(grid, n, potential, [lam]))


def _weighted_norm(apply, w):
    """||w A w||_2 of a complex symmetric A (A^T = A) given as x -> A x."""
    def op(x):
        return w * apply(w * x)
    return operator_two_norm(op, op, w.size)


def ls_sweep(grid, n, potential, lams, b, left):
    """left @ R^+(lam) b for an array of lam: shape (L, J, K) for b of
    shape (M, K) and left of shape (J, M).  One zgttrf per lam, the bands
    built a chunk of lams at a time, each lam's result written into the
    one output array; lams may be complex (Im >= 0); raises as _solvers."""
    b = np.asfortranarray(np.asarray(b).reshape(grid.M, -1))
    lams = np.atleast_1d(lams)
    out = np.empty((lams.size, len(left), b.shape[1]), complex)
    for x, (solve, _) in zip(out, _solvers(grid, n, potential, lams)):
        np.matmul(left, solve(b), out=x)
    return out


def resolvent_difference_vector(grid, n, potential, lams):
    """x(lam) with R^+ - R^- = i pi dr x conj(x)^T, a column per lam:
    x = (I + A0^+ V)^{-1} u = u - R^+ V u, so x = u in the free case."""
    v = potential(grid.nodes)
    lams = np.atleast_1d(lams)
    out = np.empty((grid.M, lams.size), complex)
    for k, (solve, u) in enumerate(_solvers(grid, n, potential, lams)):
        out[:, k] = u - solve(v * u)
    return out


def la_norm_scan(grid, n, potential, lambda_grid):
    """||<x>^{-s} R^+(lambda) <x>^{-s}||, s = SCAN_S, over a lambda grid:
    (rows, gaps), rows (lambda, norm, lambda * norm) and gaps (lambda,
    error).  The Lanczos kernel applies R by its generators for B^T too:
    R^T = A0 (I + V A0)^{-1} = R by push-through.  A numerical failure
    (ValueError, LinAlgError) is a gap; any other error, and a potential
    specified for another dimension than n, propagates."""
    potential.check_dimension(n)
    w = weight_matrix(grid, SCAN_S)
    rows, gaps = [], []
    for lam in lambda_grid:
        try:
            nrm = _weighted_norm(_solver(grid, n, potential, lam)[0], w)
            rows.append((float(lam), nrm, float(lam) * nrm))
        except (ValueError, np.linalg.LinAlgError) as exc:
            gaps.append((float(lam), repr(exc)))
    return rows, gaps


def complex_shift_compare(grid, n, potential, lam, eta):
    """Cross-check of the continuum-kernel route against the discrete matrix
    at z = lambda^2 + i eta, where the analytic continuation of the
    Lippmann-Schwinger solve (at sqrt(z)) and a banded solve of
    (T + V - z)^{-1}, factored once, are both legitimate: their relative gap
    in the weighted operator norm (weight exponent SCAN_S), both applied
    implicitly."""
    if eta <= 0:
        raise ValueError("need eta > 0")
    z = lam ** 2 + 1j * eta
    solve = _solver(grid, n, potential, np.sqrt(z))[0]
    op = build_G(grid, n, potential)
    lu = _factor(op.offdiag, op.diag - z, lam)
    w = weight_matrix(grid, SCAN_S)

    def fd(x):
        return _lu_solve(lu, x)
    return (_weighted_norm(lambda x: solve(x) - fd(x), w)
            / _weighted_norm(fd, w))
