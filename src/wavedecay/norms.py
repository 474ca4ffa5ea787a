"""Operator norms on the radial sector.

Matrices act on the transformed variable u = r^{(n-1)/2} g in plain
matrix-vector convention; radial L^p norms of g carry the measure
r^{n-1} dr.  With rho_j = r_j^{(n-1)/2} the sector norms of the induced
operator g -> (A (rho g)) / rho are the expressions in the docstrings
below.  The L2 -> L2 norm is the plain spectral norm, since the dr weight
cancels.

Every sector norm here is a band norm: A in low-rank form, left diag(c)
right^T with real factors of k columns (a spectral band, possibly
weighted), never assembled; the dense sector norms are their oracles in
the tests.  A band norm takes a stack of coefficient rows c, (T, k), one
per time t, and returns the T norms: the work on the factors is done
once per band, the work per t in blocks that no T makes larger.
``_reduced`` takes a factor to its thin-QR R when k < M.

- band_norm_2 runs Lanczos on the reduced factors, as real GEMMs; it
  also takes complex factors (a propagator record's), as plain products.
- band_norm_2_to_inf forms each row as (left_r o c) R^T, R the reduced
  right: the Gram form would square the cancellation in the rows of a
  difference band or under a growing weight (1e-11 relative on lemma
  2.3's 2.34 and on 4.6, against 3e-14).  It and band_norm_1_to_inf
  prune exactly: a row's (or an entry's) Cauchy-Schwarz bound orders the
  blocks of rows (or tiles), and one that cannot beat the running max is
  never formed, so the max is the one the full product gives.
- band_norm_inf sums the rows of |A| in blocks; the L^1 -> L^1 norm sums
  its columns, so for the symmetric bands of lemma 2.3 the p = 1 and
  p = inf rows are the one figure.

Every spectral norm of a grid operator is the largest singular value
from one Lanczos kernel, ``operator_two_norm``, with two exceptions: the
mollifier lattice's ninety or so 28 x 28 norms take one batched LAPACK
SVD (``estimates._row_norms``), and a band V diag(a) V^T on orthonormal
eigenvectors has 2-norm max |a| and row norms ||V_r o a||, which group
1.2's p = 2 row and lemma 2.3's 2.29, 2.30 (p = 2), 2.32 and 2.33 read
off the factors.

``LowRank`` is one such operator as its factors (a propagator record, a
Duhamel part, a band difference); ``LowRank.matrix`` is the one dense
assembly of a factored operator, for the oracles.

``COUNTS`` holds the kernel's Lanczos steps and Ritz solves, and the rows
and entries the pruned norms formed, against their totals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .radialop import top_eigenpair

__all__ = [
    "sector_weights",
    "LowRank",
    "band_norm_2",
    "band_norm_2_to_inf",
    "band_norm_1_to_inf",
    "band_norm_inf",
    "operator_two_norm",
]

# rows of a 2 -> inf block, and rows and columns of a 1 -> inf tile, formed
# at a time
_BLOCK = 64
# a bound times _MARGIN is above any value a rounded length-k dot product
# under it can read: that rounding is about k u relative (u = 2^-53),
# under 1e-12 for k up to a few thousand
_MARGIN = 1.0 + 1e-12
# Lanczos steps and Ritz solves of operator_two_norm, and the rows
# (2 -> inf) and entries (1 -> inf) the pruned band norms computed, against
# their totals
COUNTS = dict.fromkeys(
    ("norms.power_iterations", "norms.ritz_solves", "norms.rows_2_to_inf",
     "norms.rows_2_to_inf_total", "norms.entries_1_to_inf",
     "norms.entries_1_to_inf_total"), 0)


def sector_weights(grid, n):
    return grid.nodes ** ((n - 1) / 2.0)


def _real_apply(a, x):
    """a @ x.  For a real matrix a, a complex x goes in as its (re, im)
    pairs, one real GEMM, since a @ x would cast a to complex; a complex a
    takes the plain product."""
    if np.iscomplexobj(a) or not np.iscomplexobj(x):
        return a @ x
    pairs = np.ascontiguousarray(x).view(np.float64).reshape(-1, 2)
    return (a @ pairs).view(complex).ravel()


def _reduced(factor):
    """The thin-QR R factor of an (M, k) factor when k < M, so that
    ||x R^T|| = ||x factor^T|| for every row x; when k >= M a QR would
    shrink nothing, and the factor itself, uncopied."""
    if factor.shape[1] < factor.shape[0]:
        return np.linalg.qr(factor, mode="r")
    return factor


def band_norm_2(left, right, coeffs):
    """|| left diag(c) right^T ||_2 for each row c of coeffs (T, k), by
    operator_two_norm on x -> L diag(c) R^T x and its transpose, so no
    core is ever formed.  L and R are the ``_reduced`` left and right (one
    QR when right is left); the factors may be complex, as a propagator
    record's are on the resolvent route."""
    lf = _reduced(left)
    rf = lf if right is left else _reduced(right)
    out = np.empty(len(coeffs))
    for i, c in enumerate(coeffs):
        out[i] = operator_two_norm(
            lambda x, c=c: _real_apply(lf, c * _real_apply(rf.T, x)),
            lambda y, c=c: _real_apply(rf, c * _real_apply(lf.T, y)),
            len(rf))
    return out


@dataclass(frozen=True)
class LowRank:
    """left diag(coeffs) right^T: (M, k) factors, real or complex, and k
    coefficients.  ``+``, scalar ``*`` and ``-`` stack the factors.  A
    band V diag(c) V^T passes V as both factors, so its norm takes one
    QR."""

    left: np.ndarray
    coeffs: np.ndarray
    right: np.ndarray

    def __add__(self, other):
        return LowRank(np.concatenate([self.left, other.left], axis=1),
                       np.concatenate([self.coeffs, other.coeffs]),
                       np.concatenate([self.right, other.right], axis=1))

    def __mul__(self, scalar):
        return LowRank(self.left, scalar * self.coeffs, self.right)

    __rmul__ = __mul__

    def __sub__(self, other):
        return self + (-1) * other

    def rows(self, keep):
        """The keep x keep window, keep a mask or index of the M rows."""
        return LowRank(self.left[keep], self.coeffs, self.right[keep])

    def norm_2(self):
        return band_norm_2(self.left, self.right, self.coeffs[None])[0]

    @property
    def matrix(self):
        return (self.left * self.coeffs[None, :]) @ self.right.T


def _blocks_by_bound(bound, size):
    """(top, slice) for each run of size consecutive rows, top the largest
    bound in the run, in decreasing top."""
    starts = np.arange(0, len(bound), size)
    tops = np.maximum.reduceat(bound, starts)
    return [(tops[j], slice(starts[j], starts[j] + size))
            for j in np.argsort(-tops, kind="stable")]


def _row_norms(a, coeffs):
    """|| a_r o c || for every row r of a and row c of coeffs, (M, T),
    _BLOCK rows of a at a time."""
    mod2 = (np.abs(coeffs) ** 2).T
    out = np.empty((len(a), len(coeffs)))
    for start in range(0, len(a), _BLOCK):
        rows = slice(start, start + _BLOCK)
        out[rows] = (a[rows] ** 2) @ mod2
    return np.sqrt(out)


def band_norm_2_to_inf(left, right, coeffs, grid, n):
    """Sector L^2 -> L^inf norm, max ||A_r|| / (rho_r sqrt(dr)), of
    A = left diag(c) right^T for each row c of coeffs (T, k).  Row r's norm
    is ||(left_r o c) R^T||, R the ``_reduced`` right, formed _BLOCK rows at
    a time by real GEMMs of the real and imaginary parts.  Blocks are pruned
    exactly: ||A_r|| <= ||left_r o c|| sqrt(g), g = ||R||_1 ||R||_inf >=
    ||R||_2^2.  Each t takes its blocks in decreasing top bound / rho and
    stops once a block's top bound times _MARGIN cannot beat the running
    max; each block it forms is the slice an unpruned pass would form, so
    the result is the unpruned one bit for bit."""
    rf = _reduced(right)
    rho = sector_weights(grid, n)
    g = np.linalg.norm(rf, 1) * np.linalg.norm(rf, np.inf)
    bound = _row_norms(left, coeffs) / rho[:, None] * np.sqrt(g)
    out = np.zeros(len(coeffs))
    for i, c in enumerate(coeffs):
        for top, rows in _blocks_by_bound(bound[:, i], _BLOCK):
            if top * _MARGIN <= out[i]:
                break
            sq = sum(np.sum((part @ rf.T) ** 2, 1)
                     for part in (left[rows] * c.real, left[rows] * c.imag))
            out[i] = max(out[i], np.max(np.sqrt(sq) / rho[rows]))
            COUNTS["norms.rows_2_to_inf"] += len(sq)
        COUNTS["norms.rows_2_to_inf_total"] += len(left)
    return out / np.sqrt(grid.dr)


def band_norm_1_to_inf(left, right, coeffs, grid, n):
    """Sector L^1 -> L^inf norm, max |A_rr'| / (rho_r rho_r' dr), of
    A = left diag(c) right^T for each row c of coeffs (T, k), with the
    sector weights folded into the factors once (lw, rw).  Entries are
    pruned exactly: |A_rr'| <= ||lw_r o c|| ||rw_r'||.  The product is
    formed in tiles of _BLOCK consecutive rows by _BLOCK consecutive
    columns, the real and imaginary parts of a tile in one
    real GEMM against its columns of rw stacked [Re; Im].  Each t takes
    its row runs in decreasing top ||lw_r o c|| and, within one, the
    column runs in decreasing top ||rw_r'||; a row run stops at the
    first tile whose bound times _MARGIN cannot beat the running max,
    and the t at the first row run that cannot."""
    rho = sector_weights(grid, n)
    lw = left / rho[:, None]
    rw = lw if right is left else right / rho[:, None]
    lnorm = _row_norms(lw, coeffs)
    col_runs = _blocks_by_bound(np.sqrt(np.einsum("ij,ij->i", rw, rw)),
                                _BLOCK)
    out = np.zeros(len(coeffs))
    for i, c in enumerate(coeffs):
        for ltop, rows in _blocks_by_bound(lnorm[:, i], _BLOCK):
            ltop *= _MARGIN
            if ltop * col_runs[0][0] <= out[i]:
                break
            for rtop, cols in col_runs:
                if ltop * rtop <= out[i]:
                    break
                tile = rw[cols]
                prod = lw[rows] @ np.concatenate([tile * c.real,
                                                  tile * c.imag]).T
                width = len(tile)
                out[i] = max(out[i], float(np.max(np.hypot(
                    prod[:, :width], prod[:, width:]))))
                COUNTS["norms.entries_1_to_inf"] += prod.size // 2
        COUNTS["norms.entries_1_to_inf_total"] += len(lw) * len(rw)
    return out / grid.dr


def band_norm_inf(left, right, coeffs, grid, n):
    """Sector L^inf -> L^inf norm, max_r sum_r' |A_rr'| rho_r' / rho_r, of
    A = left diag(c) right^T for each row c of coeffs (T, k), _BLOCK rows
    of A at a time.  The L^1 -> L^1 norm is the same sum over columns, so
    the two are equal for a symmetric A (right is left)."""
    rho = sector_weights(grid, n)
    out = np.zeros(len(coeffs))
    for i, c in enumerate(coeffs):
        for start in range(0, len(left), _BLOCK):
            rows = slice(start, start + _BLOCK)
            sums = np.abs((left[rows] * c) @ right.T) @ rho
            out[i] = max(out[i], float(np.max(sums / rho[rows])))
    return out


def _start_vector(m, r):
    """The r-th deterministic start vector on C^m, of unit length: r = 0
    starts the kernel, each r a frequency of its own."""
    k = np.arange(m)
    v = (1.0 + 0.5 * np.cos((0.7 + 0.1 * r) * k)
         + 0.1 * np.sin(0.13 * k + 0.4))
    return v / np.linalg.norm(v)


def _restart_vector(basis, r):
    """The first of the start vectors r, r + 1, ... that keeps 1e-3 of its
    length projected (twice) off the rows of basis, normalized."""
    for r in range(r, r + basis.shape[1]):
        v = _start_vector(basis.shape[1], r)
        for _ in range(2):
            v = v - np.conj(basis @ np.conj(v)) @ basis
        norm = np.linalg.norm(v)
        if norm >= 1e-3:
            return v / norm
    raise np.linalg.LinAlgError("no restart vector off the Lanczos basis")


def operator_two_norm(matvec, rmatvec, m, max_iter=500):
    """Largest singular value of an implicitly given operator B on C^m by
    Lanczos on B^H B with full reorthogonalization.  ``rmatvec`` must apply
    B^T (not B^H); conjugation is handled here.  The start vector is
    deterministic: the whole pipeline is RNG-free by design.  A run stops
    once the top Ritz pair's residual beta_j |s_j| <= 1e-14 theta; from
    step 16 on the pair is checked every (j // 8)-th step only.  The pair
    is the top eigenpair of the Lanczos tridiagonal, from
    ``radialop.top_eigenpair``.

    A vanishing beta_j before j = m marks an invariant subspace
    (projectors, unitary bands), which may miss the top singular vector
    (B v = 0 would read 0).  So the run restarts from a deterministic
    vector off the basis, as a new block of the tridiagonal with Ritz
    pairs of its own, until an invariant block does not raise the top, a
    block converges or j = m, and returns the largest top.  Raises
    LinAlgError after ``max_iter`` steps.
    """
    v = _start_vector(m, 0)
    basis, alphas, betas = np.empty((0, m)), [], []
    # first step of the current block, the largest top of the blocks before
    lo, found = 0, -np.inf
    for j in range(1, max_iter + 1):
        COUNTS["norms.power_iterations"] += 1
        w = np.conj(rmatvec(np.conj(matvec(v))))
        if j > len(basis):       # grown, never m x m up front
            basis = np.concatenate([basis, np.empty((j + 15, m), w.dtype)])
        basis[j - 1] = v
        coef = np.conj(basis[:j] @ np.conj(w))
        alphas.append(coef[-1].real)
        w = w - coef @ basis[:j]
        w = w - np.conj(basis[:j] @ np.conj(w)) @ basis[:j]
        beta = np.linalg.norm(w)
        exact = beta <= 1e-14 * max(alphas) or j == m
        if exact or j % max(1, j // 8) == 0:
            COUNTS["norms.ritz_solves"] += 1
            theta, s = top_eigenpair(alphas[lo:], betas[lo:])
            if exact and j < m and theta > found * (1.0 + 1e-12):
                found, lo = theta, j
                betas.append(beta)       # joins no block
                v = _restart_vector(basis[:j], j)
                continue
            if exact or beta * abs(s[-1]) <= 1e-14 * theta:
                return float(np.sqrt(max(theta, found, 0.0)))
        betas.append(beta)
        v = w / beta
    raise np.linalg.LinAlgError(
        f"Lanczos did not converge in {max_iter} steps")
