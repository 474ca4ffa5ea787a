"""Smooth compactly supported frequency cutoffs and their exact derivatives.

The canonical bump on (a, b) is exp(-1/((s-a)(b-s))).  All derivatives are
computed from closed-form recursions (no finite differencing), which keeps
the downstream envelope and almost-analytic checks free of differencing
noise.  Three kinds are provided:

* ``bump``     -- the canonical bump itself
* ``plateau``  -- smoothed indicator: rises on [a, 2a], equals 1 up to b,
                  falls smoothly on [b, 2b]; ``b = inf`` gives the step
                  cutoff (1 on [2a, inf))
* any kind may carry a power tilt sigma^q and a scalar factor
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = [
    "BumpProfile",
    "bump",
    "plateau",
    "step_cutoff",
    "step_cutoff_derivative",
    "mollifier",
    "sqrt_compose_deriv",
]


def _raw_bump(a, b, s):
    """exp(-1/((s-a)(b-s))) on (a,b), 0 outside."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    inside = (s > a) & (s < b)
    g = np.full_like(s, -np.inf)
    g[inside] = -1.0 / ((s[inside] - a) * (b - s[inside]))
    live = inside & (g > -700.0)
    out[live] = np.exp(g[live])
    return out


def _raw_bump_deriv(a, b, k, s):
    """k-th derivative of the canonical bump on (a,b).

    Uses f' = g' f with the partial fraction
    g(s) = -((s-a)^-1 + (b-s)^-1)/(b-a), so
    g^(j) = -(j!/(b-a)) * ((-1)^j (s-a)^(-1-j) + (b-s)^(-1-j)).
    """
    s = np.asarray(s, dtype=float)
    if k == 0:
        return _raw_bump(a, b, s)
    out = np.zeros_like(s)
    # keep clear of the support endpoints: there the bump and all its
    # derivatives underflow to zero anyway
    inside = (s > a) & (s < b)
    prod = (s - a) * (b - s)
    live = inside & (-1.0 / np.where(inside, prod, 1.0) > -80.0)
    x = s[live]
    if x.size == 0:
        return out
    da = x - a
    db = b - x
    fact = 1.0
    gders = []
    for j in range(1, k + 1):
        fact *= j
        gders.append(-(fact / (b - a)) * ((-1.0) ** j * da ** (-1 - j) + db ** (-1 - j)))
    fders = [np.exp(-1.0 / (da * db))]
    for m in range(1, k + 1):
        # f^(m) = sum_j C(m-1, j) g^(j+1) f^(m-1-j)
        acc = np.zeros_like(x)
        for j in range(m):
            acc += comb(m - 1, j) * gders[j] * fders[m - 1 - j]
        fders.append(acc)
    out[live] = fders[k]
    return out


_GL_NODES, _GL_WEIGHTS = leggauss(96)


def _bump_cdf(a, b, s):
    """Integral of the canonical bump from a to min(s, b), vectorized."""
    s = np.asarray(s, dtype=float)
    hi = np.clip(s, a, b)
    # map Gauss-Legendre nodes onto [a, hi] for each element
    half = (hi - a) / 2.0
    mid = (hi + a) / 2.0
    pts = mid[..., None] + half[..., None] * _GL_NODES
    vals = _raw_bump(a, b, pts)
    # a per-row sum: a BLAS product would round by the batch size
    return half * np.einsum("...k,k->...", vals, _GL_WEIGHTS)


@dataclass(frozen=True)
class BumpProfile:
    """A smooth frequency profile with support in (0, inf).

    ``value``/``deriv`` evaluate the profile scale * sigma^power * base(sigma)
    where base is determined by ``kind``.
    """

    a_lo: float
    a_hi: float
    kind: str = "bump"
    power: float = 0.0
    scale: float = 1.0
    _mass: float = field(default=0.0, compare=False, repr=False)

    def __post_init__(self):
        if not (0.0 < self.a_lo):
            raise ValueError("profile support must lie in (0, inf)")
        if self.kind not in ("bump", "plateau"):
            raise ValueError(f"unknown profile kind {self.kind!r}")
        if np.isfinite(self.a_hi) and not self.a_lo < self.a_hi:
            raise ValueError("need a_lo < a_hi")
        if self.kind == "plateau":
            z = float(_bump_cdf(self.a_lo, 2 * self.a_lo, np.array(2 * self.a_lo)))
            object.__setattr__(self, "_mass", z)

    @property
    def support(self):
        if self.kind == "bump":
            return (self.a_lo, self.a_hi)
        hi = 2 * self.a_hi if np.isfinite(self.a_hi) else np.inf
        return (self.a_lo, hi)

    def _base_value(self, s):
        if self.kind == "bump":
            return _raw_bump(self.a_lo, self.a_hi, s)
        s = np.asarray(s, dtype=float)
        a = self.a_lo
        out = _bump_cdf(a, 2 * a, s) / self._mass
        if np.isfinite(self.a_hi):
            b = self.a_hi
            zfall = float(_bump_cdf(b, 2 * b, np.array(2 * b)))
            out = out - _bump_cdf(b, 2 * b, s) / zfall
        return out

    def _base_deriv(self, k, s):
        if k == 0:
            return self._base_value(s)
        if self.kind == "bump":
            return _raw_bump_deriv(self.a_lo, self.a_hi, k, s)
        a = self.a_lo
        out = _raw_bump_deriv(a, 2 * a, k - 1, s) / self._mass
        if np.isfinite(self.a_hi):
            b = self.a_hi
            zfall = float(_bump_cdf(b, 2 * b, np.array(2 * b)))
            out = out - _raw_bump_deriv(b, 2 * b, k - 1, s) / zfall
        return out

    def value(self, s):
        s = np.asarray(s, dtype=float)
        out = self.scale * self._base_value(s)
        if self.power != 0.0:
            pw = np.zeros_like(s)
            pos = s > 0
            pw[pos] = s[pos] ** self.power
            out = out * pw
        return out

    def deriv(self, k, s):
        """k-th derivative, exact (Leibniz over the power tilt)."""
        if k < 0:
            raise ValueError("derivative order must be >= 0")
        s = np.asarray(s, dtype=float)
        if self.power == 0.0:
            return self.scale * self._base_deriv(k, s)
        out = np.zeros_like(s)
        pos = s > 0
        x = s[pos]
        q = self.power
        coef = 1.0
        for i in range(k + 1):
            if i > 0:
                coef *= (q - i + 1) / 1.0
            out[pos] += comb(k, i) * coef * x ** (q - i) * self._base_deriv(k - i, s)[pos]
        return self.scale * out

    def __call__(self, s):
        return self.value(s)

    def tilt(self, q, scale=1.0):
        """Same base profile multiplied by sigma^q (and optionally rescaled)."""
        return BumpProfile(self.a_lo, self.a_hi, self.kind,
                           self.power + q, self.scale * scale)

    def companion_plateau(self):
        """A plateau equal to 1 on this profile's support (phi_1 with
        phi_1 * phi == phi)."""
        lo, hi = self.support
        if not np.isfinite(hi):
            raise ValueError("companion plateau needs a compact support")
        return BumpProfile(lo / 2.0, hi, "plateau")


def bump(a_lo=1.0, a_hi=2.0, power=0.0):
    return BumpProfile(a_lo, a_hi, "bump", power)


def plateau(a_lo, a_hi=np.inf):
    return BumpProfile(a_lo, a_hi, "plateau")


def step_cutoff(a):
    """chi_a: smooth, 0 below a, 1 on [2a, inf)."""
    return BumpProfile(a, np.inf, "plateau")


def step_cutoff_derivative(a, power=0.0):
    """chi_a' (a normalized bump on (a, 2a)), optionally tilted by sigma^power."""
    z = float(_bump_cdf(a, 2 * a, np.array(2 * a)))
    return BumpProfile(a, 2 * a, "bump", power, 1.0 / z)


def mollifier():
    """Nonnegative bump supported in [1/3, 1/2] with unit integral."""
    z = float(_bump_cdf(1.0 / 3.0, 0.5, np.array(0.5)))
    return BumpProfile(1.0 / 3.0, 0.5, "bump", 0.0, 1.0 / z)


def sqrt_compose_deriv(profile, k, x):
    """k-th x-derivative of psi(x) = profile(sqrt(x)) for x > 0.

    Maintains the exact representation
    psi^(k)(x) = sum_j c_j x^(p_j) profile^(j)(sqrt(x)).
    """
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ValueError("sqrt composition defined for x > 0 only")
    terms = {(0.0, 0): 1.0}  # (power p, deriv order j) -> coeff
    for _ in range(k):
        nxt = {}
        for (p, j), c in terms.items():
            if p != 0.0:
                key = (p - 1.0, j)
                nxt[key] = nxt.get(key, 0.0) + c * p
            key = (p - 0.5, j + 1)
            nxt[key] = nxt.get(key, 0.0) + 0.5 * c
        terms = nxt
    u = np.sqrt(x)
    out = np.zeros_like(x)
    for (p, j), c in terms.items():
        out += c * x ** p * profile.deriv(j, u)
    return out
