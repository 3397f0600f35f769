"""Power laws of the remainder energy.

Subtracting the explicit data extension from the component solution leaves
a remainder that vanishes on both gap boundaries.  Its squared-gradient
energy over slabs as wide as the local gap obeys power laws: in epsilon
inside the neck regime and in |z'| outside it.  The inner bound's exponent
2 gamma / (1 + gamma) is attained at the rim of the neck regime; exactly at
z' = 0 the profile gradients are smaller than the regime-wide worst case
and the energy decays faster (close to 2 gamma).  All three fits are shown.
"""

from thingap import SweepPlan, check_energy_scaling

plan = SweepPlan()
res = check_energy_scaling(plan)

print("slabs at the neck center z' = 0 (energy vs epsilon):")
for e, v in res.center_table:
    print(f"  eps = {e:8.4f}   E = {v:10.5g}")
print(f"  fitted exponent {res.center_exponent:.4f} "
      f"(upper bound allows >= {res.expected_inner:.4f}; decays faster, see module doc)")

print("\nslabs at the neck-regime rim z' = eps^(1/(1+gamma)):")
for e, v in res.edge_table:
    print(f"  eps = {e:8.4f}   E = {v:10.5g}")
print(f"  fitted exponent {res.edge_exponent:.4f} "
      f"(expected {res.expected_inner:.4f}: the bound is attained here)")

print(f"\nouter slabs at fixed eps = {plan.sweep_epsilons[-1]:g} (energy vs z'):")
for z, v in res.outer_table:
    print(f"  z' = {z:8.4f}   E = {v:10.5g}")
print(f"  fitted exponent {res.outer_exponent:.4f} "
      f"(expected {res.expected_outer:.4f})")
