"""Pointwise decay of the frequency-localized free wave kernel.

Prints sup_sigma |K_h(sigma, t)| on the light-cone window for a dyadic
range of times, next to the t^{-(n-1)/2} reference, then the h-scaling
at fixed t = 16.  Runs in a few seconds; no grid involved.
"""

from wavedecay.estimates import cone_sup
from wavedecay.fitting import fit_power_law
from wavedecay.profiles import bump

n = 4
prof = bump()

print(f"n = {n}, profile support {prof.support}")
print("\n  t        sup|K|        t^1.5 * sup")
rows = []
for t in [8.0 * 2.0 ** (k / 2.0) for k in range(9)]:
    v = cone_sup(n, prof, 1.0, t)
    rows.append((t, v))
    print(f"{t:7.2f}  {v:12.4e}  {t ** 1.5 * v:12.4e}")
rep = fit_power_law(rows, target=-1.5, tolerance=0.2)
print(f"\nfitted t-exponent {rep['fitted_exponent']:+.3f} "
      f"(target -1.5 +/- 0.2, {'ok' if rep['passed'] else 'out'})")

print("\n  h        sup|K| at t=16")
rows = []
for h in (1.0, 0.5, 0.25, 0.125):
    v = cone_sup(n, prof, h, 16.0)
    rows.append((h, v))
    print(f"{h:7.3f}  {v:12.4e}")
rep = fit_power_law(rows, target=-2.5, tolerance=0.3)
print(f"\nfitted h-exponent {rep['fitted_exponent']:+.3f} "
      f"(target -2.5 +/- 0.3, {'ok' if rep['passed'] else 'out'})")
