"""Tour of the narrow-gap geometry.

Two nearly touching bodies leave a gap of width epsilon at the origin; away
from it the gap opens like epsilon + |x'|^{1+gamma}.  This script builds the
power-law geometry, checks exactly that its boundaries keep a positive gap
on |x'| <= 1, and shows how the width behaves in the two regimes that organize
all later estimates: the neck (|x'| below epsilon^{1/(1+gamma)}) and the
outer zone.
"""

import numpy as np

from thingap import GapGeometry, LocalRegion

eps, gamma = 1e-3, 0.5
geom = GapGeometry(eps, gamma)
geom.validate()
print(f"geometry valid: epsilon={eps}, gamma={gamma}, least width {geom.least_width():.4g}, "
      f"envelope constants kappa0={geom.kappa0}, kappa1={geom.kappa1}")

neck = eps ** (1 / (1 + gamma))
print(f"\nneck scale epsilon^(1/(1+gamma)) = {neck:.4g}")
print(f"{'x-prime':>10} {'gap width':>12} {'width/eps':>10} {'width/|x|^(1+g)':>16}")
for t in (0.0, neck / 4, neck, 4 * neck, 0.25, 0.5):
    w = float(geom.gap_width(np.array([t])))
    rel_eps = w / eps
    rel_pow = w / t ** (1 + gamma) if t > 0 else float("nan")
    print(f"{t:10.4g} {w:12.5g} {rel_eps:10.3f} {rel_pow:16.3f}")

print("\nInside the neck the width is pinned to epsilon (ratio in [1, 3]);")
print("outside it tracks |x'|^{1+gamma} within a constant factor.")

z = np.array([2 * neck, 0.0])
region = LocalRegion(z, float(geom.gap_width(z[:1])), geom)
corner = np.array([z[0] + 0.999 * region.radius, 0.0])
# the zoomed frame: y' = (x' - z') / w, y_n = x_n / w with w the center width
y = np.array([corner[0] - z[0], corner[1]]) / region.radius
print(f"\nlocal slab at z'={z[0]:.4g}: radius = local width = {region.radius:.4g}")
print(f"rescaling the slab corner {corner} gives y = {y} (|y'| near 1: the")
print("slab becomes a unit-size cell in the zoomed frame)")
