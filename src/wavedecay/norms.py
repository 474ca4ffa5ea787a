"""Operator norms on the radial sector.

Matrices act on the transformed variable u = r^{(n-1)/2} g in plain
matrix-vector convention; radial L^p norms of g carry the measure
r^{n-1} dr.  With rho_j = r_j^{(n-1)/2} the sector norms of the induced
operator g -> (A (rho g)) / rho are the explicit expressions below.  The
L2 -> L2 norm coincides with the plain spectral norm since the dr weight
cancels.

The band norms take A in low-rank form, left diag(coeff) right^T with
real factors of k << M columns (a spectral band, possibly weighted), and
never assemble the M x M matrix; the dense norms are their test oracles.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "sector_weights",
    "op_norm_2",
    "op_norm_p",
    "op_norm_2_to_inf",
    "op_norm_1_to_inf",
    "band_norm_2",
    "band_norm_2_to_inf",
    "band_norm_1_to_inf",
    "operator_two_norm",
]


def sector_weights(grid, n):
    return grid.nodes ** ((n - 1) / 2.0)


def op_norm_2(matrix):
    """Spectral norm (largest singular value)."""
    return float(np.linalg.norm(matrix, 2))


def op_norm_p(matrix, grid, n, p):
    """Sector L^p -> L^p norm for p in {1, 2, inf}."""
    rho = sector_weights(grid, n)
    a = np.abs(matrix)
    if p == 2:
        return op_norm_2(matrix)
    if p == np.inf:
        return float(np.max((a @ rho) / rho))
    if p == 1:
        return float(np.max((rho @ a) / rho))
    raise ValueError("sector norms computed for p in {1, 2, inf} only")


def op_norm_2_to_inf(matrix, grid, n):
    rho = sector_weights(grid, n)
    row = np.linalg.norm(matrix, axis=1)
    return float(np.max(row / rho) / np.sqrt(grid.dr))


def op_norm_1_to_inf(matrix, grid, n):
    rho = sector_weights(grid, n)
    a = np.abs(matrix) / np.outer(rho, rho)
    return float(np.max(a) / grid.dr)


def band_norm_2(left, right, coeff):
    """|| left diag(coeff) right^T ||_2 by thin QR of both factors."""
    rl = np.linalg.qr(left, mode="r")
    rr = np.linalg.qr(right, mode="r")
    return op_norm_2(rl @ (coeff[:, None] * rr.T))


def band_norm_2_to_inf(left, right, coeff, grid, n):
    """op_norm_2_to_inf of left diag(coeff) right^T: the squared row norms
    are the diagonal of left C^* G C left^T with G the Gram of right."""
    gram = right.T @ right
    mid = (coeff[:, None] * gram) * np.conj(coeff)[None, :]
    rows = np.real(np.sum((left @ mid) * left, 1))
    rows = np.sqrt(np.maximum(rows, 0.0))
    rho = sector_weights(grid, n)
    return float(np.max(rows / rho) / np.sqrt(grid.dr))


def band_norm_1_to_inf(left, right, coeff, grid, n, chunk=256):
    """op_norm_1_to_inf of left diag(coeff) right^T, ``chunk`` rows of the
    product at a time."""
    rho = sector_weights(grid, n)
    cr = right * coeff[None, :]
    best = 0.0
    for start in range(0, left.shape[0], chunk):
        block = left[start:start + chunk] @ cr.T
        scale = np.outer(rho[start:start + chunk], rho)
        best = max(best, float(np.max(np.abs(block) / scale)))
    return best / grid.dr


def operator_two_norm(matvec, rmatvec, m, tol=1e-10, max_iter=500):
    """Largest singular value of an implicitly given operator B by power
    iteration on B^H B.  ``rmatvec`` must apply B^T (not B^H); conjugation
    is handled here.  The start vector is deterministic: the whole pipeline
    is RNG-free by design.  Raises np.linalg.LinAlgError if the estimate
    has not settled to ``tol`` after ``max_iter`` steps.
    """
    k = np.arange(m)
    v = 1.0 + 0.5 * np.cos(0.7 * k) + 0.1 * np.sin(0.13 * k + 0.4)
    v = v / np.linalg.norm(v)
    sigma = 0.0
    for _ in range(max_iter):
        w = matvec(v)
        u = np.conj(rmatvec(np.conj(w)))
        nrm = np.linalg.norm(u)
        if nrm == 0.0:
            return 0.0
        new_sigma = np.linalg.norm(w)
        v = u / nrm
        if abs(new_sigma - sigma) <= tol * max(new_sigma, 1e-300):
            return float(new_sigma)
        sigma = new_sigma
    raise np.linalg.LinAlgError(
        f"power iteration did not converge in {max_iter} steps")
