"""Box-size study of the mollified multiplier theta-slopes.

Runs the mollifier suite (criterion 14's potential and defaults, s = 1.4)
on boxes R = 128, 256 and 512 at the same spacing dr ~ 0.1 (M = 10 R)
and prints the fitted theta-slopes of (3.41) and (3.43) next to their
targets mu = 0.4 and mu - 1 = -0.6.  The question is whether the slopes
move toward the targets as the box grows.  The probe frame's packet
centres stop at r = 90 whatever the box; only its slowly decaying tail
columns grow with it.  R = 512 takes about 3 s on one core and the whole
run peaks at about 0.09 GB (getrusage): the resolvent is one tridiagonal
LU and one two-column solve per lambda, each probe then applied by
running sums over the two generators, its bands built a few lambdas at a
time, so its memory grows like M times the 28 probes.
"""

import time

from wavedecay.estimates import mollified_multiplier_suite
from wavedecay.radialop import PotentialSpec, RadialGrid

pot = PotentialSpec(2.0, 3.0)
print("    R      M   3.41 slope (0.4)   3.43 slope (-0.6)   time")
for R in (128, 256, 512):
    start = time.perf_counter()
    rep = mollified_multiplier_suite(RadialGrid(float(R), 10 * R), 4, pot)
    e41 = rep["3.41"]["fitted_exponent"]
    e43 = rep["3.43"]["fitted_exponent"]
    print(f"{R:5d} {10 * R:6d}   {e41:+16.3f}   {e43:+17.3f}   "
          f"{time.perf_counter() - start:5.1f} s")
