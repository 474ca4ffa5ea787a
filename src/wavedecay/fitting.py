"""Power-law fitting of scan data into the report node all checks share."""

from __future__ import annotations

import numpy as np

__all__ = ["check_fit_window", "fit_power_law"]

MIN_SAMPLES = 4      # fewest samples a fit takes
MIN_SPAN = 8.0       # least max/min ratio of the fitted variable


def check_fit_window(xs):
    """Raise ValueError unless the values xs of the fitted variable can
    carry a fit: at least MIN_SAMPLES positive values whose max/min is at
    least MIN_SPAN."""
    xs = np.asarray(xs, dtype=float)
    if xs.size < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples")
    if np.any(xs <= 0):
        raise ValueError("samples must be positive")
    if np.max(xs) / np.min(xs) < MIN_SPAN:
        raise ValueError("samples must span close to a decade in x")


def fit_power_law(samples, estimate_id="", variable="x", target=None,
                  tolerance=0.0, one_sided=False):
    """Fit log y = log C + e log x to finite positive samples [(x, y), ...]
    by least squares; returns the report node, a dict.  Raises ValueError
    for any other sample or a window check_fit_window rejects.

    ``residual`` is the max absolute deviation from the fit line in
    natural-log units.  ``residual_cap`` is recorded as inf and grades
    nothing.  ``passed`` holds when |fitted_exponent - target| <=
    tolerance; a None target always passes.

    ``one_sided`` takes its side from the sign of the target: a target
    <= 0 passes when fitted_exponent <= target + tolerance, a positive
    target when fitted_exponent >= target - tolerance.  That is the side
    of an upper bound for decay as x -> oo and for a positive power of a
    variable going to 0.  For a negative power of a variable going to 0
    (a blow-up bound such as C theta^{mu-1}) it is the wrong side: the
    bound there asks fitted_exponent >= target - tolerance.
    """
    pts = [(float(x), float(y)) for x, y in samples]
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    check_fit_window(xs)
    if not np.all(np.isfinite(xs) & np.isfinite(ys) & (ys > 0)):
        raise ValueError("samples must be finite and positive")
    lx, ly = np.log(xs), np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    slope = float(slope)
    if target is None:
        passed = True
    elif not one_sided:
        passed = abs(slope - target) <= tolerance
    elif target <= 0:
        passed = slope <= target + tolerance
    else:
        passed = slope >= target - tolerance
    return {"estimate_id": estimate_id, "variable": variable,
            "fitted_exponent": slope,
            "fitted_constant": float(np.exp(intercept)),
            "residual": float(np.max(np.abs(ly - (slope * lx + intercept)))),
            "window": [float(np.min(xs)), float(np.max(xs))],
            "target": target, "tolerance": tolerance, "residual_cap": np.inf,
            "one_sided": one_sided, "passed": bool(passed)}


# the largest max/min ratio a bounded-in-h or bounded-in-t surrogate passes at
STABILITY_CAP = 3.0


def _stability(values):
    """max/min of the values, the bounded-surrogate ratio the stability
    reports cap at STABILITY_CAP; inf, which fails the cap, unless every
    value is finite and > 0."""
    vals = [float(v) for v in values]
    if not vals or not all(0.0 < v < np.inf for v in vals):
        return np.inf
    return max(vals) / min(vals)
