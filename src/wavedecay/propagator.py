"""Half-wave propagators on the radial sector, three independent ways.

The eigen route realizes e^{it sqrt(G)} phi(h sqrt(G)) through the memoized
tridiagonal eigensystem and is the authoritative method.  The resolvent
route reconstructs the same operator from the jump of the outgoing and
incoming resolvents across the spectrum, and the time-domain route
integrates the second-order wave system directly; both exist to certify
the eigen route (and each other), since there is no closed-form answer to
compare against.

The Duhamel split separates the perturbed-minus-free difference into a
stationary four-term part and an O(h) time-integral remainder.

Records and both Duhamel parts are ``norms.LowRank`` factors; the
``propagator`` command takes every norm from the factors (the windowed
gap and the residual of stacked differences), so it forms no M x M
array.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .freekernel import _trapezoid_nodes
from .norms import LowRank
from .resolvent import resolvent_difference_vector
from .specfun import simpson_weights

__all__ = [
    "PropagatorRecord",
    "TrajectoryRecord",
    "wave_multiplier",
    "wave_via_resolvent",
    "duhamel_split",
    "duhamel_residual",
    "time_domain_evolve",
    "boundary_safe_gap",
    "write_propagator_norms",
]

# width of the strip next to the wall that boundary_safe_gap leaves out,
# past the light cone
_PAD = 8.0


@dataclass(frozen=True)
class PropagatorRecord(LowRank):
    """A propagator at (t, h) as left diag(coeffs) right^T, with the route
    that built it."""

    t: float
    h: float
    method: str


@dataclass(frozen=True)
class TrajectoryRecord:
    u: np.ndarray
    energy_drift: float


def wave_multiplier(op, profile, h, t, square_profile=False):
    """e^{it sqrt(op)} phi(h sqrt(op)) (phi^2 with square_profile) by the
    eigen route."""
    band = op.band(profile, h)
    c = band.coeff(t)
    if square_profile:
        c = c * band.amps
    return PropagatorRecord(band.vecs, c, band.vecs, float(t), float(h),
                            "eigen")


def wave_via_resolvent(grid, n, potential, profile, h, t):
    """The same multiplier from the spectral-jump formula

        e^{it sqrt(G)} phi^2(h sqrt(G))
            = (pi i)^{-1} int e^{it lam} phi^2(h lam) (R^+ - R^-) lam dlam.

    The jump is rank one, i pi dr x(lam) conj(x(lam))^T with x the
    outgoing-normalized regular solution, so the quadrature is a
    record of rank at most the lambda node count: x diag(w) conj(x)^T,
    one column of x and one weight w per node.  The nodes are the free
    kernel's trapezoid rule (``freekernel._trapezoid_nodes``) at the worst
    phase rate |t| + 2R, carried by the far corner of the outer product.
    """
    k, dlam = _trapezoid_nodes(profile, h, abs(t) + 2.0 * grid.R)
    lams = k * dlam

    pf = profile(h * lams)
    pf = pf * pf
    coeffs = dlam * np.exp(1j * t * lams) * pf * lams * grid.dr
    cols = resolvent_difference_vector(grid, n, potential, lams)
    return PropagatorRecord(cols, coeffs, np.conj(cols), float(t), float(h),
                            "resolvent_formula")


def _mixed_sin_integral(op0, op, profile, plateau_tilt, h, t):
    """int_0^t plateau_tilt(h sqrt(G0)) sin((t-tau) sqrt(G0)) V
    e^{i tau sqrt(G)} phi(h sqrt(G)) dtau by composite Simpson, with 8
    tau nodes per period of the top frequency, as factors (L C, R): the
    integral is (L C) R^T, (M, k) complex and (M, k) real, k the band of G.

    Everything is expressed in the mixed eigenbasis (the band of G0 on the
    left, the band of G on the right), where each tau node is an
    elementwise phase pattern on the fixed coupling matrix Q0^T V Q
    between the two bands; the left basis transform happens once, the
    right one is the factor R.  Without a potential k = 0.
    """
    if op.potential is None or op.potential.c == 0.0:
        m = op.grid.M
        return np.zeros((m, 0), dtype=complex), np.zeros((m, 0))
    left = op0.band(plateau_tilt, h)
    right = op.band(profile, h)
    v = op.potential(op.grid.nodes)
    coupling = left.vecs.T @ (v[:, None] * right.vecs)

    top = profile.support[1] / h
    n_steps = int(np.ceil(max(8.0, 8 * abs(t) * top / (2.0 * np.pi))))
    n_steps += n_steps % 2          # Simpson needs an even interval count
    taus, dtau = np.linspace(0.0, t, n_steps + 1, retstep=True)
    sw = simpson_weights(n_steps + 1, dtau)

    acc = np.zeros_like(coupling, dtype=complex)
    for tau, w in zip(taus, sw):
        phase = np.sin((t - tau) * left.roots)[:, None] * coupling \
            * np.exp(1j * tau * right.roots)[None, :]
        acc += w * phase
    return ((left.vecs * left.amps[None, :]) @ acc,
            right.vecs * right.amps[None, :])


def duhamel_split(op0, op, profile, h, t):
    """(phi1, phi2): the stationary four-term part and the O(h)
    time-integral remainder of the propagator difference, as LowRanks;
    phi1 + h * phi2 reproduces it.

    Each of the stationary part's three terms is a product of two bands,
    (L diag(a) L^T)(R diag(b) R^T) = (L C) R^T with the thin core
    C = diag(a) L^T R diag(b), so no M x M factor is formed: phi1 is
    [(L C)_1 | (L C)_2 | (L C)_3] diag(1) [R_1 | R_2 | R_3]^T."""
    if op0.grid != op.grid:
        raise ValueError("operators must share one grid")
    phi1 = profile.companion_plateau()
    phi_t = profile.tilt(1)          # sigma phi(sigma)
    phi1_t = phi1.tilt(-1)           # sigma^{-1} phi1(sigma)

    def d_spectral(prof):
        return op.band(prof, h) - op0.band(prof, h)

    pert, d1, dp, dpt = (op.band(profile, h), d_spectral(phi1),
                         d_spectral(profile), d_spectral(phi_t))
    # the G0 factors commute: phi1 (e^{it sqrt G0} - i sin(t sqrt G0)) is
    # phi1 cos(t sqrt G0)
    b1, bt = op0.band(phi1, h), op0.band(phi1_t, h)
    terms = ((d1.vecs, d1.amps, pert.vecs, pert.coeff(t)),
             (b1.vecs, b1.amps * np.cos(t * b1.roots), dp.vecs, dp.amps),
             (bt.vecs, 1j * bt.amps * np.sin(t * bt.roots), dpt.vecs,
              dpt.amps))
    # (L C)^T = (diag(b) R^T L diag(a)) L^T
    lc_t = np.concatenate([(b[:, None] * (right.T @ left) * a) @ left.T
                           for left, a, right, b in terms])
    rights = np.concatenate([right for _, _, right, _ in terms], axis=1)
    lc2, right2 = _mixed_sin_integral(op0, op, profile, phi1_t, h, t)
    return (LowRank(lc_t.T, np.ones(len(lc_t)), rights),
            LowRank(-lc2, np.ones(lc2.shape[1]), right2))


def duhamel_residual(op0, op, profile, h, t):
    """||phi1 + h phi2 - D||_2 / ||D||_2 for the propagator difference
    D = e^{it sqrt(G)} phi(h sqrt(G)) - e^{it sqrt(G0)} phi(h sqrt(G0)),
    the band difference op.band - op0.band: both norms are band norms of
    stacked factors, so no M x M array is formed."""
    phi1, phi2 = duhamel_split(op0, op, profile, h, t)
    diff = op.band(profile, h) - op0.band(profile, h)
    d = LowRank(diff.vecs, diff.coeff(t), diff.vecs)
    return (phi1 + h * phi2 - d).norm_2() / d.norm_2()


def time_domain_evolve(op, f, t_end, dt, profile, h):
    """Leapfrog integration of d^2 u/dt^2 = -G u as the independent
    propagator oracle.

    The initial data u(0) = phi(h sqrt(G)) f and u'(0) = i sqrt(G)
    phi(h sqrt(G)) f make the exact solution e^{it sqrt(G)} phi(h sqrt(G))
    f.  Richardson extrapolation over one step halving removes the leading
    O(dt^2) error.
    """
    if dt > 0.5 * op.grid.dr:
        raise ValueError("time step violates dt <= dr/2")
    if t_end < 0.0:
        raise ValueError("leapfrog runs forward only: t_end >= 0")
    band = op.band(profile, h)
    coeff = band.amps * (band.vecs.T @ np.asarray(f, dtype=complex))
    u0 = band.vecs @ coeff
    v0 = band.vecs @ (1j * band.roots * coeff)

    def run(step):
        # snap the step down to an exact divisor of the time window; the
        # CFL margin only improves
        n_steps = int(np.ceil(t_end / step - 1e-12))
        step = t_end / n_steps
        prev = u0
        cur = (u0 + step * v0 - 0.5 * step ** 2 * op.apply(u0)
               - step ** 3 / 6.0 * op.apply(v0))
        e0 = None
        drift = 0.0
        for _ in range(n_steps - 1):
            g_cur = op.apply(cur)
            nxt = 2.0 * cur - prev + step ** 2 * (-g_cur)
            # staggered invariant of the leapfrog scheme, exactly conserved
            vel = (nxt - cur) / step
            en = np.linalg.norm(vel) ** 2 + np.real(np.vdot(g_cur, nxt))
            if e0 is None:
                e0 = en
            else:
                drift = max(drift, abs(en - e0) / abs(e0))
            prev, cur = cur, nxt
        return cur, drift

    if t_end == 0.0:
        return TrajectoryRecord(u0, 0.0)
    u_c, drift_c = run(dt)
    u_f, drift_f = run(dt / 2.0)
    u = (4.0 * u_f - u_c) / 3.0
    return TrajectoryRecord(u, max(drift_c, drift_f))


def boundary_safe_gap(rec_a, rec_b, grid):
    """Relative operator-norm gap between two propagator records on the
    window r, r' <= R - |t| - _PAD.

    The continuum resolvent route lives on the half line while the eigen
    and time-domain routes carry the Dirichlet wall at R; by finite
    propagation speed the wall reflection is confined to the excluded
    corner (up to the profile's polynomial tails, which the pad absorbs).
    """
    if rec_a.t != rec_b.t:
        raise ValueError("records must share the time")
    keep = grid.nodes <= grid.R - abs(rec_a.t) - _PAD
    if not np.any(keep):
        raise ValueError("empty comparison window")
    return (rec_a - rec_b).rows(keep).norm_2() / rec_b.rows(keep).norm_2()


def write_propagator_norms(path, records):
    """CSV rows (t, h, norm_kind, value, method) of operator two-norms,
    band norms of the records' factors."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "h", "norm_kind", "value", "method"])
        for rec in records:
            w.writerow([rec.t, rec.h, "l2", repr(float(rec.norm_2())),
                        rec.method])
    return path
