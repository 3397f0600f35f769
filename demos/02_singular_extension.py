"""The explicit singular part of the solution.

Boundary data that jumps across the gap is extended inside by the crossing
profile (0 on the bottom graph, 1 on the top).  The vertical derivative of
that extension is exactly jump / gap-width, which is the whole story of the
gradient blow-up.  This script prints the extension gradient along the
strip and checks the growth of its Holder seminorm on local slabs against
the structural bound.
"""

import numpy as np

from thingap import BoundaryData, GapGeometry, check_seminorm_growth, field_gradients

eps, gamma = 1e-3, 0.5
geom = GapGeometry(eps, gamma)
data = BoundaryData.constant([1.0, 0.0], [0.0, 0.0]).only(0)

print(f"{'x-prime':>10} {'d/dn extension':>16} {'1/width':>12}")
for t in (0.0, 0.01, 0.05, 0.2):
    x = np.array([t, float(geom.midline(np.array([t])))])
    g = field_gradients(geom, data, x)
    w = float(geom.gap_width(np.array([t])))
    print(f"{t:10.4g} {g[0, 1]:16.6g} {1.0 / w:12.6g}")
print("the vertical entry is identically the inverse gap width")

print("\nHolder-seminorm growth on slabs of radius = fraction * local width:")
for zp in (0.0, eps ** (1 / (1 + gamma)), 0.25):
    mid = float(geom.midline(np.array([zp])))
    rep = check_seminorm_growth(geom, data, np.array([zp, mid]), (0.25, 0.5, 1.0),
                                pairs=2000, seed=0)
    rows = " ".join(f"s={r.s:.3g}: ratio={r.ratio:8.3g}"
                    + ("" if r.hypothesis_ok else " (slab reaches the neck, excluded)")
                    for r in rep.rows)
    print(f"  z'={zp:8.4g}  fitted constant {rep.fitted_constant:7.3f}   {rows}")
print("\nratios stay O(1) wherever the slab keeps the gap width comparable")
print("to its center value; those constants are what the sweep checks track.")
