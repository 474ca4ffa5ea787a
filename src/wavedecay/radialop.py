"""Half-line discretization of the radial sector.

After the substitution u = r^{(n-1)/2} v the radial part of -Delta becomes
L = -d^2/dr^2 + (n-1)(n-3)/(4 r^2) on (0, R) with Dirichlet ends, which we
discretize with second-order central differences on M interior nodes.  The
resulting dense (well, tridiagonal-plus-diagonal) symmetric matrices are
the common currency of every matrix-based module.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dstebz, dstein

__all__ = [
    "RadialGrid",
    "PotentialSpec",
    "SpectralBand",
    "DiscreteOperator",
    "build_G0",
    "build_G",
    "weight_matrix",
    "top_eigenpair",
]


# tridiagonal eigensolves of the operators, under the tracer's name for them
COUNTS = {"radialop.eigensolves": 0}


@dataclass(frozen=True)
class RadialGrid:
    """Uniform interior grid r_j = j * dr, j = 1..M, on (0, R)."""

    R: float
    M: int

    def __post_init__(self):
        if not (self.R > 0 and self.M >= 2):
            raise ValueError("need R > 0 and at least 2 interior nodes")

    @property
    def dr(self):
        return self.R / (self.M + 1)

    @property
    def nodes(self):
        return self.dr * np.arange(1, self.M + 1)


@dataclass(frozen=True)
class PotentialSpec:
    """V(r) = c <r>^-delta with delta > (n+1)/2."""

    c: float
    delta: float
    n: int = 4

    def __post_init__(self):
        if self.c < 0:
            raise ValueError("amplitude must be >= 0")
        if not self.delta > (self.n + 1) / 2:
            raise ValueError("decay rate must exceed (n+1)/2")

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        return self.c * (1.0 + r ** 2) ** (-self.delta / 2.0)

    def check_dimension(self, n):
        """ValueError naming both dimensions unless the spec is for n."""
        if self.n != n:
            raise ValueError(f"potential specified for n = {self.n} "
                             f"used at n = {n}")


@dataclass(frozen=True)
class SpectralBand:
    """The eigenpairs of an operator on which a frequency profile is
    nonzero: roots sqrt(mu), profile amplitudes and eigenvector columns.

    The frequency-localized propagator e^{it sqrt(G)} phi(h sqrt(G)) is
    vecs diag(coeff(t)) vecs^T, the ``norms.LowRank`` with vecs as both
    factors, so norms of it need only these factors.
    """

    roots: np.ndarray
    amps: np.ndarray
    vecs: np.ndarray

    def coeff(self, t):
        """Diagonal of the band's propagator at time t: shape (k,) for a
        scalar t, one row per time, (T, k), for an array of T times."""
        return self.amps * np.exp(1j * np.asarray(t)[..., None] * self.roots)

    def __sub__(self, other):
        # the two operators' bands side by side, the second one negated
        return SpectralBand(np.concatenate([self.roots, other.roots]),
                            np.concatenate([self.amps, -other.amps]),
                            np.concatenate([self.vecs, other.vecs], axis=1))


@dataclass(frozen=True)
class DiscreteOperator:
    """Symmetric realization of the transformed radial operator.

    Stored as tridiagonal bands, never as a dense matrix.  The
    eigendecomposition is computed once per instance because every
    multiplier route reuses it.
    """

    diag: np.ndarray
    offdiag: np.ndarray
    n: int
    grid: RadialGrid
    potential: PotentialSpec | None = None

    def apply(self, v):
        """The operator times a vector v of shape (M,)."""
        v = np.asarray(v)
        out = self.diag * v
        out[:-1] += self.offdiag * v[1:]
        out[1:] += self.offdiag * v[:-1]
        return out

    @cached_property
    def _eigen(self):
        # cached_property writes the instance __dict__ directly, which a
        # frozen dataclass allows
        COUNTS["radialop.eigensolves"] += 1
        try:
            return eigh_tridiagonal(self.diag, self.offdiag)
        except np.linalg.LinAlgError as exc:  # pragma: no cover
            raise RuntimeError("eigendecomposition failed") from exc

    def eigensystem(self):
        """(eigenvalues ascending, orthonormal eigenvectors as columns)."""
        return self._eigen

    def band(self, profile, h):
        """The band of profile(h sqrt(G)): the eigenpairs of the positive
        spectrum where the profile is nonzero."""
        mu, q = self.eigensystem()
        pos = mu > 0
        root = np.sqrt(mu[pos])
        amp = profile(h * root)
        keep = amp != 0
        return SpectralBand(root[keep], amp[keep],
                            q[:, np.flatnonzero(pos)[keep]])


def _centrifugal(n, r):
    return (n - 1) * (n - 3) / 4.0 / r ** 2


# Checks build their operators independently; the memo hands equal
# (grid, n, potential) the same instance, so its eigensystem is computed
# once.  Instances are read-only, so sharing is safe.  A verify run of
# every group builds 2 distinct operators and the whole test suite 12,
# so 32 never evicts one there; the bound caps the memory a long session
# can pin (one M = 1280 eigensystem is 13 MB).
@lru_cache(maxsize=32)
def _operator(grid, n, potential):
    if potential is None:
        if n < 2:
            raise ValueError("dimension must be >= 2")
        r = grid.nodes
        dr2 = grid.dr ** 2
        diag = 2.0 / dr2 + _centrifugal(n, r)
        offdiag = np.full(grid.M - 1, -1.0 / dr2)
        return DiscreteOperator(diag, offdiag, n, grid)
    potential.check_dimension(n)
    free = _operator(grid, n, None)
    diag = free.diag
    if potential.c != 0.0:
        diag = free.diag + potential(grid.nodes)
    return DiscreteOperator(diag, free.offdiag, n, grid, potential)


def build_G0(grid, n):
    """Free transformed radial operator, Dirichlet at both ends."""
    return _operator(grid, n, None)


def build_G(grid, n, potential):
    """Perturbed operator; c = 0 reproduces build_G0 bit-exactly."""
    return _operator(grid, n, potential)


def weight_matrix(grid, s):
    """diag(<r_j>^-s), returned as a vector (diagonal)."""
    if not np.isfinite(s):
        raise ValueError("weight exponent must be finite")
    return (1.0 + grid.nodes ** 2) ** (-s / 2.0)


def top_eigenpair(diag, offdiag):
    """Largest eigenvalue of a symmetric tridiagonal matrix and its unit
    eigenvector (the Ritz step of ``norms.operator_two_norm``): one index
    of LAPACK's tridiagonal solver (bisection and inverse iteration), not
    a full eigensolve.  LAPACK's stebz and stein are called directly with
    the arguments ``eigh_tridiagonal(select="i")`` passes them, so the
    pair is that function's bit for bit without its per-call checks."""
    d = np.asarray_chkfinite(diag, dtype=float)
    e = np.asarray_chkfinite(offdiag, dtype=float)
    if d.size == 1:
        return d[0], np.ones(1)
    # range 2 = by index, il = iu = the last, abstol 0, block order "B"
    m, w, iblock, isplit, info = dstebz(d, e, 2, 0.0, 1.0, d.size, d.size,
                                        0.0, "B")
    if info:
        raise np.linalg.LinAlgError(f"stebz failed (LAPACK info={info})")
    vecs, info = dstein(d, e, w[:m], iblock, isplit)
    if info:
        raise np.linalg.LinAlgError(f"stein failed (LAPACK info={info})")
    return w[0], vecs[:, 0]
