"""Limiting absorption at desk scale.

Scans the weighted resolvent norm ||<x>^{-s} R^+(lambda) <x>^{-s}|| over
lambda for the free and perturbed half-line operators and shows the
lambda^{-1} high-energy decay, plus the complex-shift cross-check of the
continuum-kernel solve against the banded matrix solve.
"""

import numpy as np

from wavedecay.fitting import fit_power_law
from wavedecay.radialop import PotentialSpec, RadialGrid
from wavedecay.resolvent import complex_shift_compare, la_norm_scan

grid = RadialGrid(32.0, 639)
free = PotentialSpec(0.0, 3.0)
pert = PotentialSpec(2.0, 3.0)
lams = np.geomspace(1.0, 8.0, 9)

for label, pot in (("free", free), ("perturbed", pert)):
    rows, gaps = la_norm_scan(grid, 4, pot, lams)
    rep = fit_power_law([(lam, nrm) for lam, nrm, _ in rows], "la",
                        "lambda", target=-1.0, tolerance=0.1)
    print(f"{label}:")
    for lam, nrm, ln in rows:
        print(f"  lambda {lam:6.3f}   norm {nrm:9.5f}   "
              f"lambda*norm {ln:9.5f}")
    print(f"  fitted lambda-exponent {rep.fitted_exponent:+.3f}\n")

for eta in (1.0, 0.5):
    gap = complex_shift_compare(grid, 4, pert, 2.0, eta=eta)
    print(f"complex-shift cross-check at eta = {eta}: "
          f"relative gap {gap:.3e}")
