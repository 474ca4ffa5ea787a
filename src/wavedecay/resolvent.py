"""Outgoing/incoming resolvents on the radial sector.

The boundary values R^{+/-}(lambda) of a finite grid's resolvent do not
exist (the discrete spectrum is real), so the primary route goes through
the continuum free Green kernel on the Liouville half line,

    G0^{+/-}(r, r'; lambda) = +/- (i pi / 2) sqrt(r r')
                              J_nu(lambda r_<) H_nu^{+/-}(lambda r_>),

and the Lippmann-Schwinger solve R = (I + R0 V)^{-1} R0.  The discrete
matrix enters only through the complex-shift cross-check.

All matrices here are plain l2 operators: the dr quadrature weight of the
continuum kernel is folded into the matrix itself.
"""

from __future__ import annotations

import numpy as np
from scipy import special
from scipy.linalg import solve_banded

from .norms import op_norm_2, operator_two_norm
from .radialop import build_G, build_G0, weight_matrix

__all__ = [
    "GROWTH_LIMIT",
    "free_green_matrix",
    "regular_solution",
    "green_delta_residual",
    "ls_sweep",
    "ls_solve",
    "resolvent_difference_vector",
    "la_norm_scan",
    "complex_shift_compare",
]

DEFAULT_EPS = 0.05
# largest e^{Im lam R}, the sweep's round-off growth, that it accepts
GROWTH_LIMIT = 1e8
# most (lam, M, K + 1) entries one sweep block holds: 64 MB of complex
# values, and M^2 / 2 (one lam's dense Green matrix halved) up to M = 2896
BLOCK_ENTRIES = 2 ** 22


def _bessel_pair(grid, n, lam, sign):
    """u1 = sqrt(r) J_nu(lam r), u2 = sqrt(r) H_nu^{sign}(lam r), a row per
    lam.  Complex lam only with Im lam >= 0 and sign=+1 (the analytic
    continuation)."""
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    lam = np.asarray(lam)
    if np.iscomplexobj(lam):
        if sign != +1 or np.any(np.imag(lam) < 0):
            raise ValueError("complex frequency only for the outgoing branch")
    elif np.any(lam <= 0):
        raise ValueError("frequency must be > 0")
    nu, z = (n - 2) / 2.0, lam[..., None] * grid.nodes
    hfun = special.hankel1 if sign == +1 else special.hankel2
    root = np.sqrt(grid.nodes)
    return root * special.jv(nu, z), root * hfun(nu, z)


def regular_solution(grid, n, lam):
    """u(r) = sqrt(r) J_nu(lambda r), the regular half-line solution."""
    return _bessel_pair(grid, n, lam, +1)[0]


def free_green_matrix(grid, n, lam, sign):
    """Dense free resolvent matrix (dr weight included): the test oracle
    of the sweep."""
    u1, u2 = _bessel_pair(grid, n, lam, sign)
    low = np.tril(np.outer(u2, u1))          # i >= j: r_i = r_>
    up = np.triu(np.outer(u1, u2), k=1)      # i <  j: r_i = r_<
    return sign * 0.5j * np.pi * grid.dr * (low + up)


def green_delta_residual(grid, n, lam, sign, col):
    """Apply the discretized (L - lambda^2) to one Green column; away from
    the diagonal the result should vanish relative to the delta spike.
    This is the sign/normalization oracle."""
    g = free_green_matrix(grid, n, lam, sign)[:, col] / grid.dr
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


def _sweep(grid, n, potential, lams, sign, b):
    """Blocks of (I + A0 V)^{-1} [A0 b, u1] over an array of lams, A0 =
    cdr (tril(u2 u1^T) + triu(u1 u2^T, 1)).  A block (one lam at least)
    holds at most min(M^2 / 2, BLOCK_ENTRIES) (lam, M, K + 1) entries, so
    its memory stays bounded as M grows; the closing step works one lam at
    a time.

    x = (I + A0 V)^{-1} (r + A0 b) solves x = r + A0 (b - V x).  With P, Q
    the running sums of u1 (b - V x) and u2 (b - V x), row i reads x_i =
    r_i + cdr [u2_i P_{i-1} - u1_i Q_{i-1} + u1_i T] (the diagonal terms
    cancel), linear in T = Q_M: x = y + cdr T z, with y the T = 0 sweep and
    z that of the column r = u1, b = 0.  So T = Q_M(y) / det with det =
    1 - cdr Q_M(z) = det(I + A0 V), and that column closes to z / det.
    """
    lams = np.atleast_1d(lams)
    growth = np.exp(np.imag(lams) * grid.R)
    if np.any(growth > GROWTH_LIMIT):
        k = np.argmax(growth)
        raise ValueError(f"lambda {lams[k]} grows the sweep by e^(Im lambda "
                         f"R) = {growth[k]:.3g} > limit {GROWTH_LIMIT:g}")
    v = potential(grid.nodes)
    cdr = sign * 0.5j * np.pi * grid.dr
    b = np.concatenate([b, np.zeros((grid.M, 1))], axis=1)
    step = max(1, min(grid.M // (2 * b.shape[1]),
                      BLOCK_ENTRIES // (grid.M * b.shape[1])))
    for part in np.split(lams, np.arange(step, lams.size, step)):
        u1, u2 = _bessel_pair(grid, n, part, sign)
        g = cdr * np.stack([u2, -u1], axis=-1)[:, :, None, :]
        w = np.stack([u1, u2], axis=-1)[..., None]
        y = np.zeros(u1.shape + b.shape[1:], complex)
        y[..., -1] = u1
        pq = np.zeros((y.shape[0], 2, y.shape[2]), complex)
        for i in range(grid.M):
            y[:, i] += (g[:, i] @ pq)[:, 0]
            pq += w[:, i] * (b[i] - v[i] * y[:, i])[:, None, :]
        det = 1.0 - cdr * pq[:, 1, -1]
        if not np.all(ok := np.isfinite(det) & (det != 0.0)):
            raise np.linalg.LinAlgError(
                f"lambda {part[~ok][0]}: det(I + A0 V) = {det[~ok][0]}")
        close = cdr * (pq[:, 1] / det[:, None])
        for yk, ck in zip(y, close):
            yk += np.outer(yk[:, -1], ck)
        yield y


def ls_sweep(grid, n, potential, lams, b, sign, left=None):
    """R^{sign}(lam) b = (I + A0 V)^{-1} A0 b for an array of lam, with A0
    the free Green matrix: shape (L, M, K) for b of shape (M, K), or
    left @ R b when left (J, M) is given.

    An O(M) recurrence per lam; no M x M matrix is built.  For sign = +1,
    lams may be complex with Im lam >= 0; the round-off grows like
    e^{Im lam R}, and past GROWTH_LIMIT that raises ValueError.  A singular
    system raises np.linalg.LinAlgError.
    """
    b = np.asarray(b).reshape(grid.M, -1)
    xs = (x[..., :-1] for x in _sweep(grid, n, potential, lams, sign, b))
    return np.concatenate([x if left is None else left @ x for x in xs])


def ls_solve(grid, n, potential, lam, sign, s=0.55):
    """Dense weighted resolvent <x>^{-s} R^{sign}(lam) <x>^{-s}, the sweep
    on the identity; lam as in ls_sweep."""
    r = ls_sweep(grid, n, potential, [lam], np.eye(grid.M), sign)[0]
    ws = weight_matrix(grid, s)
    return ws[:, None] * r * ws[None, :]


def resolvent_difference_vector(grid, n, potential, lams):
    """x(lam) with R^+ - R^- = i pi dr x conj(x)^T, a column per lam: the
    sweep's last column (I + A0^+ V)^{-1} u, so x = u in the free case."""
    xs = _sweep(grid, n, potential, lams, +1, np.zeros((grid.M, 0)))
    return np.concatenate([x[..., -1] for x in xs]).T


def la_norm_scan(grid, n, potential, lambda_grid, s=0.5 + DEFAULT_EPS):
    """Scan of ||<x>^{-s} R^+(lambda) <x>^{-s}|| over a lambda grid.

    Returns (rows, gaps); rows are (lambda, norm, lambda * norm), gaps
    (lambda, error).  The Lanczos norm kernel applies the weighted
    resolvent for B^T too: R^T = A0 (I + V A0)^{-1} = R by push-through.
    Points where the solve fails numerically (ValueError, LinAlgError) are
    recorded as gaps; any other error propagates.
    """
    rows, gaps = [], []
    for lam in lambda_grid:
        try:
            r = ls_solve(grid, n, potential, lam, +1, s)
            nrm = operator_two_norm(r.dot, r.dot, grid.M)
            rows.append((float(lam), nrm, float(lam) * nrm))
        except (ValueError, np.linalg.LinAlgError) as exc:
            gaps.append((float(lam), repr(exc)))
    return rows, gaps


def complex_shift_compare(grid, n, potential, lam, eta, s=0.5 + DEFAULT_EPS):
    """Cross-check the continuum-kernel route against the discrete matrix.

    At z = lambda^2 + i eta both the analytic continuation of the
    Lippmann-Schwinger solve (at sqrt(z)) and a banded solve of
    (T + V - z)^{-1} are legitimate; returns their relative gap in the
    weighted operator norm.
    """
    if eta <= 0:
        raise ValueError("need eta > 0")
    z = lam ** 2 + 1j * eta
    a_ls = ls_solve(grid, n, potential, np.sqrt(z), +1, s)

    op = build_G(grid, n, potential)
    ab = np.zeros((3, grid.M), complex)
    ab[0, 1:] = op.offdiag
    ab[1] = op.diag - z
    ab[2, :-1] = op.offdiag
    r_fd = solve_banded((1, 1), ab, np.eye(grid.M))
    w = weight_matrix(grid, s)
    a_fd = w[:, None] * r_fd * w[None, :]

    return op_norm_2(a_ls - a_fd) / op_norm_2(a_fd)
