"""Power-law fitting of scan data and the report record all checks share."""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

__all__ = ["DecayFitReport", "check_fit_window", "fit_power_law"]

MIN_SAMPLES = 4      # fewest samples a fit takes
MIN_SPAN = 8.0       # least max/min ratio of the fitted variable


@dataclass
class DecayFitReport:
    """Least-squares fit of log y = log C + e * log x plus the pass rule.

    ``residual`` is the max absolute deviation from the fit line in
    natural-log units.  ``passed`` is a pure function of the recorded
    fields: |fitted_exponent - target| <= tolerance and residual <=
    residual_cap (a None target disables the exponent clause).

    ``one_sided`` takes its side from the sign of the target: a target
    <= 0 passes when fitted_exponent <= target + tolerance, a positive
    target when fitted_exponent >= target - tolerance.  That is the side
    of an upper bound for decay as x -> oo and for a positive power of a
    variable going to 0.  For a negative power of a variable going to 0
    (a blow-up bound such as C theta^{mu-1}) it is the wrong side: the
    bound there asks fitted_exponent >= target - tolerance.
    """

    estimate_id: str
    variable: str
    fitted_exponent: float
    fitted_constant: float
    residual: float
    window: tuple
    target: float | None = None
    tolerance: float = 0.0
    residual_cap: float = np.inf
    one_sided: bool = False

    @property
    def passed(self):
        if self.residual > self.residual_cap:
            return False
        if self.target is None:
            return True
        if self.one_sided:
            # pass when at least as steep as the target (signed comparison)
            if self.target <= 0:
                return self.fitted_exponent <= self.target + self.tolerance
            return self.fitted_exponent >= self.target - self.tolerance
        return abs(self.fitted_exponent - self.target) <= self.tolerance

    def as_dict(self):
        d = asdict(self)
        d["passed"] = bool(self.passed)
        d["window"] = list(self.window)
        return d


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
    """Fit y = C x^e to positive samples [(x, y), ...] by log-log least
    squares; the report's residual_cap is left at inf."""
    pts = [(float(x), float(y)) for x, y in samples]
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    check_fit_window(xs)
    if np.any(ys <= 0):
        raise ValueError("samples must be positive")
    lx, ly = np.log(xs), np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    residual = float(np.max(np.abs(ly - (slope * lx + intercept))))
    return DecayFitReport(estimate_id, variable, float(slope),
                          float(np.exp(intercept)), residual,
                          (float(np.min(xs)), float(np.max(xs))),
                          target, tolerance, one_sided=one_sided)


# the largest max/min ratio a bounded-in-h or bounded-in-t surrogate passes at
STABILITY_CAP = 3.0


def _stability(values):
    """max/min of the positive values (0.0 when there are none): the
    bounded-surrogate ratio the stability reports cap at STABILITY_CAP."""
    vals = [float(v) for v in values if v > 0]
    if not vals:
        return 0.0
    return max(vals) / min(vals)
