"""Bessel kernels and the quadrature rules the package shares.

The weighted function z^nu J_nu(z), the pair (J_nu, H_nu^(1)) of the free
Green kernel, and the exact oscillatory symbol decomposition z^nu J_nu(z)
= e^{iz} b^+ + e^{-iz} b^-, b^- = conj(b^+) (H^(2) is never formed), plus
composite Gauss-Legendre panels and the composite Simpson weights.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy import special

__all__ = [
    "caljnu",
    "bessel_jh",
    "symbol_split",
    "gauss_panels",
    "simpson_weights",
]


def _check_positive(z):
    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z)) or np.any(z <= 0):
        raise ValueError("argument must be finite and > 0")
    return z


def caljnu(nu, z):
    """z^nu J_nu(z) for z > 0.  nu = 1 (n = 4, the order every workload
    runs) takes cephes' j1, about nine times faster than the
    general-order AMOS routine jv, which serves every other order and is
    the tests' oracle.

    j1 reduces the phase z - 3 pi / 4 in double precision beyond z = 5,
    so near a zero it is off by up to the effect of moving z by one
    rounding, eps z |d/dz (z J_1)|; the product z = sigma lam the callers
    form carries that rounding already."""
    z = _check_positive(z)
    if nu == 1:
        return z * special.j1(z)
    return z ** nu * special.jv(nu, z)


def bessel_jh(nu, z):
    """(J_nu(z), H_nu^(1)(z)).  For nu = 1 and real z, cephes' j1 and
    j1 + i y1, ten times faster than AMOS's jv and hankel1; complex z
    takes AMOS, where J + i Y would cancel like e^{2 |Im z|}."""
    if nu == 1 and not np.iscomplexobj(z):
        j = special.j1(z)
        return j, j + 1j * special.y1(z)
    return special.jv(nu, z), special.hankel1(nu, z)


def symbol_split(nu, z):
    """Exact symbol decomposition b^+(z) = (1/2) z^nu H^(1)(z) e^{-iz},
    b^- = conj(b^+) for real z: the pair of arrays (b^+, b^-)."""
    z = _check_positive(z)
    bp = 0.5 * z ** nu * special.hankel1(nu, z) * np.exp(-1j * z)
    return bp, np.conj(bp)


@lru_cache(maxsize=None)
def _legendre(points):
    # leggauss costs 0.1-5 ms per call; the rule is shared read-only
    xg, wg = leggauss(points)
    xg.setflags(write=False)
    wg.setflags(write=False)
    return xg, wg


def gauss_panels(edges, points):
    """Composite Gauss-Legendre rule with ``points`` nodes on each panel
    [edges[k], edges[k+1]]; (nodes, weights), panel by panel."""
    xg, wg = _legendre(points)
    edges = np.asarray(edges, dtype=float)
    half = np.diff(edges) / 2.0
    mid = (edges[:-1] + edges[1:]) / 2.0
    nodes = (mid[:, None] + half[:, None] * xg).ravel()
    weights = (half[:, None] * wg).ravel()
    return nodes, weights


def simpson_weights(n_nodes, step):
    """Composite Simpson weights on ``n_nodes`` equispaced nodes (odd
    count, so an even number of intervals) of spacing ``step``."""
    if n_nodes < 3 or n_nodes % 2 == 0:
        raise ValueError("Simpson needs an odd node count >= 3")
    sw = np.ones(n_nodes)
    sw[1:-1:2], sw[2:-1:2] = 4.0, 2.0
    return sw * (step / 3.0)
