"""Operator norms on the radial sector.

Matrices act on the transformed variable u = r^{(n-1)/2} g in plain
matrix-vector convention; radial L^p norms of g carry the measure
r^{n-1} dr.  With rho_j = r_j^{(n-1)/2} the sector norms of the induced
operator g -> (A (rho g)) / rho are the explicit expressions below.  The
L2 -> L2 norm coincides with the plain spectral norm since the dr weight
cancels.

The band norms take A in low-rank form, left diag(c) right^T with real
factors of k << M columns (a spectral band, possibly weighted), and never
assemble the M x M matrix; the dense norms are their test oracles.  They
take a stack of coefficient rows c, shape (T, k), one per time t, and
return the T norms, so the work on the factors is done once per band.
The work per t is done one t at a time, in blocks of rows or in work
arrays that every t reuses, so no working set grows with T.

Every spectral norm (dense, band core or implicit) is the largest singular
value from one Lanczos kernel, ``operator_two_norm``, with no full SVD.
"""

from __future__ import annotations

import numpy as np

from .radialop import top_eigenpair

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

# rows of a band_norm_2 core, or of a band_norm_2_to_inf product, formed
# at a time
_BLOCK = 64


def sector_weights(grid, n):
    return grid.nodes ** ((n - 1) / 2.0)


def op_norm_2(matrix):
    """Spectral norm (largest singular value) by operator_two_norm, on the
    transpose of a wide matrix so that m is the smaller side."""
    a = matrix if matrix.shape[0] >= matrix.shape[1] else matrix.T
    return operator_two_norm(a.__matmul__, a.T.__matmul__, a.shape[1])


def op_norm_p(matrix, grid, n, p):
    """Sector L^p -> L^p norm for p in {1, 2, inf}."""
    if p not in (1, 2, np.inf):
        raise ValueError("sector norms computed for p in {1, 2, inf} only")
    if p == 2:
        return op_norm_2(matrix)
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


def band_norm_2(left, right, coeffs):
    """|| left diag(c) right^T ||_2 for each row c of coeffs (T, k): one
    thin QR of each factor (a single one when right is left), then the
    spectral norm of each core R_l diag(c) R_r^T, built one t at a time,
    _BLOCK rows at a time, from real GEMMs of the real R factors."""
    rl = np.linalg.qr(left, mode="r")
    rrt = (rl if right is left else np.linalg.qr(right, mode="r")).T
    core = np.empty((len(rl), rrt.shape[1]), dtype=complex)
    out = np.empty(len(coeffs))
    for i, c in enumerate(coeffs):
        for start in range(0, len(rl), _BLOCK):
            rows = slice(start, start + _BLOCK)
            core.real[rows] = (rl[rows] * c.real) @ rrt
            core.imag[rows] = (rl[rows] * c.imag) @ rrt
        out[i] = op_norm_2(core)
    return out


def band_norm_2_to_inf(left, right, coeffs, grid, n):
    """op_norm_2_to_inf of left diag(c) right^T for each row c of coeffs
    (T, k).  The squared row norms are the diagonal of A G A^* with
    A = left diag(c) and G the Gram of right, formed once; G is real and
    symmetric, so that diagonal is the sum of the real GEMMs of Re A and
    Im A, formed one t and _BLOCK rows at a time."""
    gram = right.T @ right
    rho = sector_weights(grid, n)
    out = np.zeros(len(coeffs))
    for i, c in enumerate(coeffs):
        for start in range(0, len(left), _BLOCK):
            rows = slice(start, start + _BLOCK)
            sq = sum(np.sum((part @ gram) * part, 1)
                     for part in (left[rows] * c.real, left[rows] * c.imag))
            out[i] = max(out[i], np.max(np.sqrt(np.maximum(sq, 0.0))
                                        / rho[rows]))
    return out / np.sqrt(grid.dr)


def band_norm_1_to_inf(left, right, coeffs, grid, n, chunk=256):
    """op_norm_1_to_inf of left diag(c) right^T for each row c of coeffs
    (T, k), ``chunk`` rows of each product at a time.  The sector weights
    are folded into the factors once, and the real and imaginary parts of
    a block are one real GEMM against the stacked factor [Re; Im], which
    every t rewrites in place, as it does the block."""
    rho = sector_weights(grid, n)
    lw = left / rho[:, None]
    rw = lw if right is left else right / rho[:, None]
    m = left.shape[0]
    stacked = np.empty((2 * m, rw.shape[1]))
    block = np.empty((min(chunk, m), 2 * m))
    out = np.empty(len(coeffs))
    for i, c in enumerate(coeffs):
        np.multiply(rw, c.real, out=stacked[:m])
        np.multiply(rw, c.imag, out=stacked[m:])
        best = 0.0
        for start in range(0, m, chunk):
            rows = lw[start:start + chunk]
            blk = np.matmul(rows, stacked.T, out=block[:len(rows)])
            # the moduli overwrite the real parts
            best = max(best, float(np.max(
                np.hypot(blk[:, :m], blk[:, m:], out=blk[:, :m]))))
        out[i] = best
    return out / grid.dr


def operator_two_norm(matvec, rmatvec, m, max_iter=500):
    """Largest singular value of an implicitly given operator B on C^m by
    Lanczos on B^H B with full reorthogonalization.  ``rmatvec`` must apply
    B^T (not B^H); conjugation is handled here.  The start vector is
    deterministic: the whole pipeline is RNG-free by design.  Stops once
    the top Ritz pair's residual beta_j |s_j| <= 1e-14 theta or beta_j
    vanishes (an invariant subspace: projectors, unitary bands, C^m); from
    step 16 on the pair is checked every (j // 8)-th step only.  The pair
    is the top eigenpair of the j x j Lanczos tridiagonal, from
    ``radialop.top_eigenpair``.  Raises LinAlgError after ``max_iter``
    steps.
    """
    k = np.arange(m)
    v = 1.0 + 0.5 * np.cos(0.7 * k) + 0.1 * np.sin(0.13 * k + 0.4)
    v = v / np.linalg.norm(v)
    basis, alphas, betas = np.empty((0, m)), [], []
    for j in range(1, max_iter + 1):
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
            theta, s = top_eigenpair(alphas, betas)
            if exact or beta * abs(s[-1]) <= 1e-14 * theta:
                return float(np.sqrt(max(theta, 0.0)))
        betas.append(beta)
        v = w / beta
    raise np.linalg.LinAlgError(
        f"Lanczos did not converge in {max_iter} steps")
