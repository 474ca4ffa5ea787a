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
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .norms import op_norm_2
from .resolvent import resolvent_difference_vector
from .specfun import gauss_panels, simpson_weights

__all__ = [
    "PropagatorRecord",
    "DuhamelSplit",
    "TrajectoryRecord",
    "wave_multiplier",
    "wave_via_resolvent",
    "phi_difference",
    "duhamel_split",
    "time_domain_evolve",
    "boundary_safe_gap",
    "free_sector_kernel_column",
    "write_propagator_norms",
]


@dataclass(frozen=True)
class PropagatorRecord:
    t: float
    h: float
    profile: object
    matrix: np.ndarray
    method: str


@dataclass(frozen=True)
class DuhamelSplit:
    t: float
    h: float
    phi1_part: np.ndarray
    phi2_part: np.ndarray
    quadrature: dict


@dataclass(frozen=True)
class TrajectoryRecord:
    t_end: float
    dt: float
    u: np.ndarray
    energy_drift: float


def wave_multiplier(op, profile, h, t, square_profile=False):
    """e^{it sqrt(op)} phi(h sqrt(op)) (phi^2 with square_profile) by the
    eigen route."""
    band = op.band(profile, h)
    c = band.coeff(t)
    if square_profile:
        c = c * band.amps
    return PropagatorRecord(float(t), float(h), profile, band.dense(c),
                            "eigen")


def wave_via_resolvent(grid, n, potential, profile, h, t):
    """The same multiplier from the spectral-jump formula

        e^{it sqrt(G)} phi^2(h sqrt(G))
            = (pi i)^{-1} int e^{it lam} phi^2(h lam) (R^+ - R^-) lam dlam.

    The jump is rank one, i pi dr x(lam) conj(x(lam))^T with x the
    outgoing-normalized regular solution, so the quadrature collapses to
    one GEMM over the lambda nodes.  Node density follows the worst phase
    rate |t| + 2R carried by the far corner of the outer product: 1.5
    six-point panels per period.
    """
    lo, hi = profile.support
    lam_lo, lam_hi = lo / h, hi / h
    rate = abs(t) + 2.0 * grid.R
    periods = rate * (lam_hi - lam_lo) / (2.0 * np.pi)
    n_panels = max(4, int(np.ceil(1.5 * periods)))
    lams, wts = gauss_panels(np.linspace(lam_lo, lam_hi, n_panels + 1), 6)

    pf = profile(h * lams)
    pf = pf * pf
    coeffs = wts * np.exp(1j * t * lams) * pf * lams * grid.dr
    cols = resolvent_difference_vector(grid, n, potential, lams)
    mat = (cols * coeffs[None, :]) @ np.conj(cols).T
    return PropagatorRecord(float(t), float(h), profile, mat,
                            "resolvent_formula")


def phi_difference(op0, op, profile, h, t):
    """e^{it sqrt(G)} phi(h sqrt(G)) - e^{it sqrt(G0)} phi(h sqrt(G0))."""
    if op0.grid != op.grid:
        raise ValueError("operators must share one grid")
    a = wave_multiplier(op, profile, h, t)
    b = wave_multiplier(op0, profile, h, t)
    return a.matrix - b.matrix


def _mixed_sin_integral(op0, op, profile, plateau_tilt, h, t):
    """int_0^t plateau_tilt(h sqrt(G0)) sin((t-tau) sqrt(G0)) V
    e^{i tau sqrt(G)} phi(h sqrt(G)) dtau by composite Simpson, with 8
    tau nodes per period of the top frequency.

    Everything is expressed in the mixed eigenbasis (the band of G0 on the
    left, the band of G on the right), where each tau node is an
    elementwise phase pattern on the fixed coupling matrix Q0^T V Q
    between the two bands; the two basis transforms happen once.
    """
    if op.potential is None or op.potential.c == 0.0:
        z = np.zeros((op.grid.M, op.grid.M), dtype=complex)
        return z, 0
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
    mat = (left.vecs * left.amps[None, :]) @ acc \
        @ (right.vecs * right.amps[None, :]).T
    return mat, n_steps + 1


def duhamel_split(op0, op, profile, h, t):
    """Stationary four-term part and O(h) time-integral remainder of the
    propagator difference; phi1_part + h * phi2_part reproduces it."""
    if op0.grid != op.grid:
        raise ValueError("operators must share one grid")
    phi1 = profile.companion_plateau()
    phi_t = profile.tilt(1)          # sigma phi(sigma)
    phi1_t = phi1.tilt(-1)           # sigma^{-1} phi1(sigma)

    def d_spectral(prof):
        return (op.band(prof, h) - op0.band(prof, h)).dense()

    u_pert = wave_multiplier(op, profile, h, t).matrix
    # the G0 factors commute: phi1 (e^{it sqrt G0} - i sin(t sqrt G0)) is
    # phi1 cos(t sqrt G0)
    b1, bt = op0.band(phi1, h), op0.band(phi1_t, h)
    part1 = (d_spectral(phi1) @ u_pert
             + b1.dense(b1.amps * np.cos(t * b1.roots)) @ d_spectral(profile)
             + 1j * bt.dense(bt.amps * np.sin(t * bt.roots))
             @ d_spectral(phi_t))
    integral, n_nodes = _mixed_sin_integral(op0, op, profile, phi1_t, h, t)
    return DuhamelSplit(float(t), float(h), part1, -integral,
                        {"rule": "simpson", "tau_nodes": n_nodes})


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
        return TrajectoryRecord(0.0, dt, u0, 0.0)
    u_c, drift_c = run(dt)
    u_f, drift_f = run(dt / 2.0)
    u = (4.0 * u_f - u_c) / 3.0
    return TrajectoryRecord(float(t_end), dt, u, max(drift_c, drift_f))


def boundary_safe_gap(rec_a, rec_b, grid, pad=8.0):
    """Relative operator-norm gap between two propagator records on the
    window r, r' <= R - |t| - pad.

    The continuum resolvent route lives on the half line while the eigen
    and time-domain routes carry the Dirichlet wall at R; by finite
    propagation speed the wall reflection is confined to the excluded
    corner (up to the profile's polynomial tails, which the pad absorbs).
    """
    if rec_a.t != rec_b.t:
        raise ValueError("records must share the time")
    keep = grid.nodes <= grid.R - abs(rec_a.t) - pad
    if not np.any(keep):
        raise ValueError("empty comparison window")
    sub = np.ix_(keep, keep)
    return (op_norm_2(rec_a.matrix[sub] - rec_b.matrix[sub])
            / op_norm_2(rec_b.matrix[sub]))


def free_sector_kernel_column(grid, n, profile, h, t, col):
    """Sector projection of the full-space free kernel.

    The angular average int_{S^{n-1}} K_h(|r e1 - r' w|, t) dw reduces to a
    1-D theta integral against sin^{n-2} (64-point Gauss on [0, pi]);
    multiplying by (r r')^{(n-1)/2} gives the continuum sector kernel,
    comparable to an eigen-route column divided by dr.  Returns (row
    indices, values) on every fourth row.
    """
    from math import gamma

    from .freekernel import eval_Kh_sigma_batch

    rp = grid.nodes[col]
    rows = np.arange(0, grid.M, 4)
    theta, tw = gauss_panels([0.0, np.pi], 64)
    r = grid.nodes[rows]
    dists = np.sqrt(r[:, None] ** 2 + rp ** 2
                    - 2.0 * r[:, None] * rp * np.cos(theta)[None, :])
    flat = dists.ravel()
    vals = np.empty(flat.size, dtype=complex)
    for start in range(0, flat.size, 2048):
        sl = slice(start, start + 2048)
        vals[sl] = eval_Kh_sigma_batch(n, profile, h, flat[sl], t)
    vals = vals.reshape(dists.shape)
    sphere = 2.0 * np.pi ** ((n - 1) / 2.0) / gamma((n - 1) / 2.0)
    angular = sphere * (vals * (np.sin(theta) ** (n - 2) * tw)[None, :]).sum(1)
    return rows, (r * rp) ** ((n - 1) / 2.0) * angular


def write_propagator_norms(path, records):
    """CSV rows (t, h, norm_kind, value, method) of operator two-norms."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "h", "norm_kind", "value", "method"])
        for rec in records:
            w.writerow([rec.t, rec.h, "l2", repr(op_norm_2(rec.matrix)),
                        rec.method])
    return path
