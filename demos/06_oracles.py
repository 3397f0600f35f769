"""Independent cross-checks of the element solver.

Three references that share no code with the element pipeline beyond the
LAPACK binding: an exact affine solution on a flat rectangle (reproduced to
machine precision), a finite-difference twin solved on its own band by
banded Cholesky (interior agreement under 1%), and a dense-grid
Holder-seminorm enumeration calibrating the pair sampler.
"""

import numpy as np

from thingap import (AffineCase, BoundaryData, GapGeometry, LocalRegion, assemble,
                     brute_force_seminorm, dirichlet_values, field_gradients, field_values,
                     finite_difference_reference, generate, grid_distance,
                     holder_seminorm, identity_coefficients, solve_dirichlet)

# exact affine case
eps = 0.1
case = AffineCase(eps)
geom = case.geometry()
mesh = generate(geom, layers=8, aspect=2.0, dxmax=0.05, xrange=1.0)
sol = solve_dirichlet(assemble(mesh, identity_coefficients()),
                      dirichlet_values(mesh, case.data()))
err = np.max(np.abs(sol.values - case.solution(mesh.vertices)))
print(f"affine case: max nodal error {err:.2e} (linear elements reproduce affine "
      f"fields exactly)")

# finite-difference twin on quadratic data, with the extension of the same
# data as its values on all four sides
data = BoundaryData.polynomial([[1.0, 0.0, 1.0]], [[0.0]], geom)
grid = finite_difference_reference(identity_coefficients(), 0.5, eps, 160, 64,
                                   boundary=lambda X: field_values(geom, data, X))
mesh2 = generate(geom, layers=16, aspect=2.0, dxmax=0.0125, xrange=0.5)
sol2 = solve_dirichlet(assemble(mesh2, identity_coefficients()),
                       dirichlet_values(mesh2, data))
worst = grid_distance(sol2, grid)
print(f"difference-stencil twin vs elements: interior sup {worst:.2e} (<= 1e-2)")

# seminorm sampler calibration
gap = GapGeometry(1e-2, 0.5)
unit_jump = BoundaryData.constant([1.0], [0.0])
region = LocalRegion(np.array([0.0, 0.0]),
                     0.5 * float(gap.gap_width(np.zeros(1))), gap)
f = lambda X: field_gradients(gap, unit_jump, X).reshape(X.shape[0], -1)
dense = brute_force_seminorm(f, region, 0.5, grid=60)
sampled = holder_seminorm(f, region, 0.5, pairs=4000, seed=0)
print(f"seminorm sampler: sampled {sampled:.4g} vs dense enumeration {dense:.4g} "
      f"(ratio {sampled / dense:.3f}, >= 0.8 required)")
