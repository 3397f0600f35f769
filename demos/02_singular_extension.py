"""The explicit singular part of the solution.

Boundary data that jumps across the gap is extended inside by the crossing
profile (0 on the bottom graph, 1 on the top).  The vertical derivative of
that extension is exactly jump / gap-width, which is the whole story of the
gradient blow-up.  This script prints the extension gradient along the
strip and the growth of its Holder seminorm on local slabs against the
structural bound, as ``thingap prop21`` measures it.
"""

import numpy as np

from thingap import SweepPlan, check_prop21, field_gradients

plan = SweepPlan()                   # unit jump in component 0, gamma = 0.5
eps = plan.sweep_epsilons[-1]
geom = plan.geometry(eps)
data = plan.boundary_data(geom).only(0)

print(f"{'x-prime':>10} {'d/dn extension':>16} {'1/width':>12}")
for t in (0.0, 0.01, 0.05, 0.2):
    x = np.array([t, float(geom.midline(np.array([t])))])
    g = field_gradients(geom, data, x)
    w = float(geom.gap_width(np.array([t])))
    print(f"{t:10.4g} {g[0, 1]:16.6g} {1.0 / w:12.6g}")
print("the vertical entry is identically the inverse gap width")

doc, (growth,) = check_prop21(plan)
print(f"\nHolder-seminorm growth on slabs of radius fraction * local width, eps = {eps:g}:")
for r in doc["rows"]:
    if r["epsilon"] == eps:
        print(f"  z'={r['zprime']:8.4g}  s={r['s']:.3g}: ratio={r['ratio']:8.3g}"
              + ("" if r["hypothesis_ok"] else " (slab reaches the neck, excluded)"))
print("largest admissible ratio per epsilon: " + ", ".join(
    f"{e:g}: {c:.3f}" for e, c in zip(plan.sweep_epsilons, doc["per_epsilon_max_constant"])))
print(f"{growth.verdict.upper()} {growth.name}: {growth.reason()}")
print("\nratios stay O(1) wherever the slab keeps the gap width comparable")
print("to its center value, and so does their largest value as the gap closes.")
