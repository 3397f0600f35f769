"""Independent cross-checks of the element solver, as ``thingap oracle-suite`` runs them.

Three references that share no code with the element pipeline beyond the
LAPACK binding: an exact affine solution on a flat rectangle (reproduced to
machine precision), a finite-difference twin solved on its own band by
banded Cholesky (interior agreement under 1%, for the Laplacian and for
plane-strain Lame), and a dense-grid Holder-seminorm enumeration calibrating
the pair sampler.
"""

from thingap import SweepPlan, check_oracles

doc, checks = check_oracles(SweepPlan())
for key, value in doc.items():
    print(f"{key:>20}: {value:.4g}")
for c in checks:
    print(f"{c.verdict.upper()} {c.name}: {c.reason()}")
