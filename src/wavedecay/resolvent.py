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
from scipy.linalg import lu_factor, lu_solve, solve_banded

from .fitting import fit_power_law
from .norms import operator_two_norm
from .radialop import weight_matrix

__all__ = [
    "free_green_matrix",
    "regular_solution",
    "green_delta_residual",
    "ls_solve",
    "resolvent_difference_vector",
    "la_norm_scan",
    "complex_shift_compare",
]

DEFAULT_EPS = 0.05


def _check_sign(sign):
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")


def _sqrtr_bessel(grid, n, lam):
    nu = (n - 2) / 2.0
    r = grid.nodes
    z = lam * r
    u1 = np.sqrt(r) * special.jv(nu, z)
    return u1, z, nu, r


def regular_solution(grid, n, lam):
    """u(r) = sqrt(r) J_nu(lambda r), the regular half-line solution."""
    return _sqrtr_bessel(grid, n, lam)[0]


def free_green_matrix(grid, n, lam, sign):
    """Dense free resolvent matrix (dr weight included).

    Accepts complex lam with Im lam >= 0 for sign=+1 (analytic
    continuation used by the complex-shift cross-check).
    """
    _check_sign(sign)
    if np.iscomplexobj(np.asarray(lam)):
        if sign != +1 or np.imag(lam) < 0:
            raise ValueError("complex frequency only for the outgoing branch")
    elif lam <= 0:
        raise ValueError("frequency must be > 0")
    u1, z, nu, _ = _sqrtr_bessel(grid, n, lam)
    hfun = special.hankel1 if sign == +1 else special.hankel2
    u2 = np.sqrt(grid.nodes) * hfun(nu, z)
    low = np.tril(np.outer(u2, u1))          # i >= j: r_i = r_>
    up = np.triu(np.outer(u1, u2), k=1)      # i <  j: r_i = r_<
    return sign * 0.5j * np.pi * grid.dr * (low + up)


def green_delta_residual(grid, n, lam, sign, col):
    """Apply the discretized (L - lambda^2) to one Green column; away from
    the diagonal the result should vanish relative to the delta spike.
    This is the sign/normalization oracle."""
    from .radialop import build_G0

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


class _Factorization:
    """LU of (I + R0^{sign} V) with transpose-aware solves."""

    def __init__(self, grid, n, potential, lam, sign):
        self.a0 = free_green_matrix(grid, n, lam, sign)
        v = potential(grid.nodes)
        self._lu = lu_factor(np.eye(grid.M) + self.a0 * v[None, :])

    def solve(self, b, trans=0):
        return lu_solve(self._lu, b, trans=trans)

    def apply_resolvent(self, vec):
        """R^{sign} vec via one triangular solve."""
        return self.solve(self.a0 @ vec)

    def apply_resolvent_t(self, vec):
        """R^T vec; R is complex-symmetric only up to the V weighting, so
        use R^T = A0 (I + V A0)^{-1} = A0 solve((I + A0 V)^T, .) pattern."""
        return self.a0.T @ self.solve(vec, trans=1)


def ls_solve(grid, n, potential, lam, sign, s=0.55, s1=None):
    """Weighted perturbed resolvent <x>^{-s} R^{sign} <x>^{-s1} by the
    Lippmann-Schwinger solve R = (I + R0 V)^{-1} R0.  For sign = +1, lam
    may be complex with Im lam >= 0 (the analytic continuation)."""
    fac = _Factorization(grid, n, potential, lam, sign)
    r = fac.solve(fac.a0)
    ws = weight_matrix(grid, s)
    ws1 = ws if s1 is None else weight_matrix(grid, s1)
    return ws[:, None] * r * ws1[None, :]


def resolvent_difference_vector(grid, n, potential, lam):
    """x with R^+ - R^- = i pi dr x conj(x)^T (rank one); free case x = u."""
    u = regular_solution(grid, n, lam)
    if potential.c == 0.0:
        return u
    fac = _Factorization(grid, n, potential, lam, +1)
    return fac.solve(u)


def _weighted_norm_via_lu(grid, n, potential, lam, sign, s, s1):
    """||<x>^{-s} R <x>^{-s1}|| without materializing R (power iteration on
    the factored solve)."""
    fac = _Factorization(grid, n, potential, lam, sign)
    ws, ws1 = weight_matrix(grid, s), weight_matrix(grid, s1)

    def mv(v):
        return ws * fac.apply_resolvent(ws1 * v)

    def mtv(v):
        return ws1 * fac.apply_resolvent_t(ws * v)

    return operator_two_norm(mv, mtv, grid.M)


def la_norm_scan(grid, n, potential, lambda_grid, s=0.5 + DEFAULT_EPS,
                 sign=+1, estimate_id="la"):
    """Scan of ||<x>^{-s} R^{sign}(lambda) <x>^{-s}|| over a lambda grid.

    Returns (fit report of log norm vs log lambda, rows); rows are
    (lambda, norm, lambda * norm).  Points where the solve fails
    numerically (ValueError, LinAlgError) are recorded as gaps; any other
    error propagates.
    """
    rows, gaps = [], []
    for lam in lambda_grid:
        try:
            nrm = _weighted_norm_via_lu(grid, n, potential, lam, sign, s, s)
            rows.append((float(lam), nrm, float(lam) * nrm))
        except (ValueError, np.linalg.LinAlgError) as exc:
            gaps.append((float(lam), repr(exc)))
    report = fit_power_law([(lam, nrm) for lam, nrm, _ in rows],
                           estimate_id=estimate_id, variable="lambda",
                           target=-1.0, tolerance=0.1)
    return report, rows, gaps


def complex_shift_compare(grid, n, potential, lam, eta, s=0.5 + DEFAULT_EPS):
    """Cross-check the continuum-kernel route against the discrete matrix.

    At z = lambda^2 + i eta both the analytic continuation of the
    Lippmann-Schwinger solve (at sqrt(z)) and a banded solve of
    (T + V - z)^{-1} are legitimate; returns their relative gap in the
    weighted operator norm.
    """
    from .radialop import build_G

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

    gap = np.linalg.norm(a_ls - a_fd, 2) / np.linalg.norm(a_fd, 2)
    return float(gap)
