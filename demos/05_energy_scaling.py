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

for title, scale, fit, remark in (
        ("slabs at the neck center z' = 0 (energy vs epsilon)", "eps", res.center,
         "upper bound allows >= {:.4f}; decays faster, see module doc"),
        ("slabs at the neck-regime rim z' = eps^(1/(1+gamma))", "eps", res.edge,
         "expected {:.4f}: the bound is attained here"),
        (f"outer slabs at fixed eps = {plan.sweep_epsilons[-1]:g} (energy vs z')", "z'",
         res.outer, "expected {:.4f}")):
    print(f"\n{title}:")
    for x, v in fit.table:
        print(f"  {scale:>3} = {x:8.4f}   E = {v:10.5g}")
    print(f"  fitted exponent {fit.exponent:.4f} ({remark.format(fit.expected)})")
