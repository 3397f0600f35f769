"""The blow-up rate experiment.

Shrinking the gap with a fixed unit jump in the data, the centerline
gradient must grow like 1/epsilon: the upper and lower pointwise bounds
match there.  The sweep solves at five gap widths, gates each measurement
on a mesh-refinement check along the gap (midpoint stations; the largest
gap width also across it, with doubled layers), fits the rate, and tracks
the envelope constants, which must stay within a constant factor as
epsilon drops.

Writes sweep tables next to this script when run directly; plots the
log-log rate figure if matplotlib is importable.
"""

from pathlib import Path

from thingap import SweepPlan, run_sweep, sweep_checks

plan = SweepPlan()          # the default plan is the headline experiment
report = run_sweep(plan)

print(f"{'epsilon':>9} {'M_center':>10} {'station chg':>11} {'C_upper':>8} "
      f"{'C_lower':>8}")
for r in report.records:
    print(f"{r.epsilon:9.4f} {r.M_center:10.3f} {r.reliability_change:11.4f} "
          f"{r.C_upper:8.4f} {r.C_lower:8.4f}")
lv = report.layers_level
print(f"layers x2 at epsilon = {lv['epsilon']:g} ({lv['layers']} layers): "
      f"change {lv['reliability_change']:.4f}")

print(f"\nfitted blow-up rate rho = {report.rho:.4f} +/- {report.rho_halfwidth:.4f} "
      f"(matching bounds predict 1)")
for name, consts in (("envelope", [r.C_profile for r in report.records]),
                     ("lower-bound", [r.C_lower for r in report.records])):
    print(f"{name} constants {min(consts):.3f}..{max(consts):.3f}")
for check in sweep_checks(report, stability_factor=3.0):
    print(f"{check.verdict.upper():4} {check.name}: {check.reason()}")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    eps = [r.epsilon for r in report.records]
    M = [r.M_center for r in report.records]
    fig, ax = plt.subplots(figsize=(5, 4))
    ax.loglog(eps, M, "o-", label="measured")
    ax.loglog(eps, [M[0] * (e / eps[0]) ** -1 for e in eps], "--",
              label="slope -1 reference")
    ax.set_xlabel("gap width")
    ax.set_ylabel("|grad u| at the neck center")
    ax.legend()
    out = Path(__file__).with_suffix(".png")
    fig.savefig(out, dpi=120, bbox_inches="tight")
    print(f"\nwrote {out.name}")
except ImportError:
    print("\n(matplotlib not available; skipping the figure)")
