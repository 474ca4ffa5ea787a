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
    spectral norm of each of the T k x k cores."""
    rl = np.linalg.qr(left, mode="r")
    rr = rl if right is left else np.linalg.qr(right, mode="r")
    cores = rl @ (coeffs[:, :, None] * rr.T)
    return np.array([op_norm_2(core) for core in cores])


def band_norm_2_to_inf(left, right, coeffs, grid, n):
    """op_norm_2_to_inf of left diag(c) right^T for each row c of coeffs
    (T, k).  The squared row norms are the diagonal of A G A^* with
    A = left diag(c) and G the Gram of right, formed once; G is real and
    symmetric, so that diagonal is the sum of the real GEMMs of Re A and
    Im A."""
    gram = right.T @ right
    rho = sector_weights(grid, n)
    out = np.empty(len(coeffs))
    for i, c in enumerate(coeffs):
        rows = sum(np.sum((part @ gram) * part, 1)
                   for part in (left * c.real, left * c.imag))
        rows = np.sqrt(np.maximum(rows, 0.0))
        out[i] = np.max(rows / rho)
    return out / np.sqrt(grid.dr)


def band_norm_1_to_inf(left, right, coeffs, grid, n, chunk=256):
    """op_norm_1_to_inf of left diag(c) right^T for each row c of coeffs
    (T, k), ``chunk`` rows of each product at a time.  The sector weights
    are folded into the factors once, and the real and imaginary parts of
    a block are one real GEMM."""
    rho = sector_weights(grid, n)
    lw, rw = left / rho[:, None], right / rho[:, None]
    m = left.shape[0]
    out = np.empty(len(coeffs))
    for i, c in enumerate(coeffs):
        cr = np.concatenate([rw * c.real, rw * c.imag]).T
        best = 0.0
        for start in range(0, m, chunk):
            block = lw[start:start + chunk] @ cr
            best = max(best, float(np.max(np.hypot(block[:, :m],
                                                   block[:, m:]))))
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
