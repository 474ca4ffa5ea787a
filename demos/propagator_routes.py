"""One propagator, three independent computations.

The localized half-wave operator e^{it sqrt(G)} phi(h sqrt(G)) is built
from the eigendecomposition, reconstructed from the jump of the outgoing
and incoming resolvents, and integrated directly in the time domain; the
demo prints the pairwise gaps and the Duhamel-split residual.
"""

import numpy as np

from wavedecay.profiles import bump
from wavedecay.propagator import (boundary_safe_gap, duhamel_residual,
                                  time_domain_evolve, wave_multiplier,
                                  wave_via_resolvent)
from wavedecay.radialop import PotentialSpec, RadialGrid, build_G, build_G0

grid = RadialGrid(32.0, 639)
pot = PotentialSpec(2.0, 3.0)
prof = bump()
op0, op = build_G0(grid, 4), build_G(grid, 4, pot)
t, h = 4.0, 1.0

eig = wave_multiplier(op, prof, h, t, square_profile=True)
res = wave_via_resolvent(grid, 4, pot, prof, h, t)
print(f"eigen vs resolvent-formula gap (windowed): "
      f"{boundary_safe_gap(res, eig, grid):.3e}")

f = np.exp(-((grid.nodes - 8.0)) ** 2)
rec = time_domain_evolve(op, f, t, 0.5 * grid.dr, prof, h)
expect = wave_multiplier(op, prof, h, t).matrix @ f
rel = np.linalg.norm(rec.u - expect) / np.linalg.norm(expect)
print(f"leapfrog vs eigen on a wave packet:        {rel:.3e}  "
      f"(energy drift {rec.energy_drift:.1e})")

resid = duhamel_residual(op0, op, prof, 0.5, t)
print(f"duhamel split residual at h = 1/2:         {resid:.3e}")
