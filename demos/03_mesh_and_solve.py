"""Meshing the strip and solving the elasticity system.

The mesh is layered and graded: tangential spacing proportional to the
local gap width near the neck (capped away from it), a fixed number of
cells across every fiber.  On it we solve the plane-strain system with a
unit jump in the first displacement component and look at the gradient
along the centerline, where it reaches 1/epsilon.
"""

import numpy as np

from thingap import (BoundaryData, GapGeometry, LameParameters, assemble,
                     dirichlet_values, generate, grade, gradient_at, lame_as_general,
                     solve_dirichlet)

eps, gamma = 1e-2, 0.5
geom = GapGeometry(eps, gamma)
mesh = generate(geom, grade(geom, 1.0, 0.02, 1.0), 12)
mesh.validate()
near = int(np.sum(np.abs(mesh.stations) < eps ** (1 / (1 + gamma))))
print(f"mesh: {mesh.num_vertices} vertices, {mesh.num_triangles} triangles, "
      f"{mesh.stations.size} stations ({near} inside the neck)")
i = int(np.argmin(np.abs(mesh.stations)))
dx, dy = mesh.stations[i + 1] - mesh.stations[i], eps / mesh.layers
print(f"neck cell {dx:.2e} wide, {dy:.2e} tall (aspect {dx / dy:.0f}, "
      f"matched to the gap by construction)")

cs = lame_as_general(LameParameters(1.0, 1.0))
data = BoundaryData.constant([1.0, 0.0], [0.0, 0.0])
system = assemble(mesh, cs)
u = solve_dirichlet(system, dirichlet_values(mesh, data))

print(f"\n|grad u| along the centerline (1/eps = {1 / eps:g}):")
for t in np.linspace(-0.4 * eps, 0.4 * eps, 5):
    g = gradient_at(u, (0.0, t))
    print(f"  x_n = {t:9.2e}   |grad u| = {np.linalg.norm(g):9.4g}")

print("\n|grad u| along the midline vs the envelope jump/(eps + |x'|^{1+gamma}):")
for t in (0.0, 0.05, 0.1, 0.25, 0.5):
    x = (t, geom.midline(t))
    g = np.linalg.norm(gradient_at(u, x))
    env = 1.0 / (eps + t ** (1 + gamma))
    print(f"  x' = {t:5.2f}   |grad u| = {g:9.4g}   envelope = {env:9.4g}   "
          f"ratio = {g / env:6.3f}")
