import dataclasses
import itertools
import tracemalloc
from unittest.mock import Mock

import numpy as np
import pytest
from scipy.linalg import lapack
from scipy.sparse.linalg import splu

from thingap.auxiliary import BoundaryData, field_gradients, field_values
from thingap.coefficients import (CoefficientSet, LameParameters, holder_demo_coefficients,
                                  identity_coefficients, lame_as_general)
from thingap.geometry import GapGeometry, LocalRegion
from thingap.mesh import TAG_BOTTOM, TAG_TOP, Mesh, generate, grade, refine
from thingap import _lapack, mesh as mesh_module, solver
from thingap.oracle import OracleError, finite_difference_reference
from thingap.solver import (BoundaryAssignment, DiscreteSolution, RightHandSide, SolverError,
                            assemble, dirichlet_values, gradient_at, l2_norm,
                            solve_dirichlet, value_at)
from thingap.verify import SweepPlan, fit_rate, probe_points, remainder_energy

EPS = 1e-2
GAMMA = 0.5


def single_triangle_mesh():
    """Unit right triangle wrapped as a Mesh (only assembly-relevant fields used)."""
    geom = GapGeometry(10.0, 0.5, 0.0, 0.0)
    return Mesh(vertices=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                triangles=np.array([[0, 1, 2]]),
                vertex_tags=np.zeros(3, dtype=np.int8),
                stations=np.array([0.0, 1.0]), layers=1, geom=geom)


def test_element_stiffness_unit_right_triangle():
    # hand computation: gradients (-1,-1), (1,0), (0,1); area 1/2
    # K = area * g_a . g_b  ->  diag (1, 1/2, 1/2)
    mesh = single_triangle_mesh()
    system = assemble(mesh, identity_coefficients(m=1))
    K = system.K.toarray()
    want = np.array([[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]])
    assert np.allclose(K, want, atol=1e-14)


def test_lame_assembly_symmetric():
    geom = GapGeometry(EPS, GAMMA)
    mesh = generate(geom, grade(geom, 1.0, 0.05, 0.5), 6)
    system = assemble(mesh, lame_as_general(LameParameters(1.0, 1.0)))
    K = system.K
    asym = abs(K - K.T).max() / abs(K).max()
    assert asym < 1e-12


def test_zero_data_gives_zero_solution():
    geom = GapGeometry(EPS, GAMMA)
    mesh = generate(geom, grade(geom, 1.0, 0.05, 0.5), 6)
    system = assemble(mesh, identity_coefficients())
    bc = dirichlet_values(mesh, BoundaryData.constant([0.0], [0.0]))
    sol = solve_dirichlet(system, bc)
    assert np.max(np.abs(sol.values)) == 0.0


def test_affine_exactness_flat_rectangle():
    eps = 0.2
    geom = GapGeometry(eps, 0.5, 0.0, 0.0)
    mesh = generate(geom, grade(geom, 2.0, 0.1, 1.0), 5)
    system = assemble(mesh, identity_coefficients())
    bc = dirichlet_values(mesh, BoundaryData.constant([1.0], [0.0]))
    sol = solve_dirichlet(system, bc)
    exact = (mesh.vertices[:, 1] + eps / 2) / eps
    assert np.max(np.abs(sol.values[:, 0] - exact)) < 1e-12
    g = gradient_at(sol, (0.3, 0.05))
    assert np.allclose(g, [[0.0, 1.0 / eps]], atol=1e-11)


def test_discrete_maximum_principle_scalar_identity():
    geom = GapGeometry(EPS, GAMMA)
    mesh = generate(geom, grade(geom, 1.0, 0.02, 0.75), 8)
    system = assemble(mesh, identity_coefficients())
    bc = dirichlet_values(mesh, BoundaryData.constant([1.0], [0.0]))
    sol = solve_dirichlet(system, bc)
    assert sol.values.min() >= -1e-10
    assert sol.values.max() <= 1.0 + 1e-10


def _full_coefficient_set():
    """Constant coefficients with every term active, kept strongly coercive."""
    A = np.zeros((2, 2, 2, 2))
    lame = lame_as_general(LameParameters(1.0, 1.0))
    A[:] = lame.A
    B = 0.1 * np.arange(8, dtype=float).reshape(2, 2, 2) / 8.0
    C = 0.05 * (1.0 + np.arange(8, dtype=float)).reshape(2, 2, 2) / 8.0
    D = 0.1 * np.array([[1.0, 0.2], [0.1, 1.0]])
    return CoefficientSet(m=2, A=A, B=B, Cc=C, D=D, lam=1.0, kappa3=10.0,
                          name="full_terms")


def _manufactured(cs, mesh):
    """Solve with sources built from a smooth reference field; return errors."""
    origin = np.zeros((1, 2))
    A0 = cs.eval_A_many(origin)[0]
    B0 = cs.eval_B_many(origin)[0]
    C0 = cs.eval_C_many(origin)[0]
    D0 = cs.eval_D_many(origin)[0]

    def ustar(X):
        X = np.atleast_2d(X)
        u1 = np.sin(1.3 * X[:, 0]) * np.cosh(X[:, 1]) + 0.3 * X[:, 0] ** 2
        u2 = np.cos(X[:, 0]) * X[:, 1] + 0.1 * X[:, 0]
        return np.stack([u1, u2], axis=1)[:, :cs.m]

    def gstar(X):
        X = np.atleast_2d(X)
        g = np.empty((X.shape[0], 2, 2))
        g[:, 0, 0] = 1.3 * np.cos(1.3 * X[:, 0]) * np.cosh(X[:, 1]) + 0.6 * X[:, 0]
        g[:, 0, 1] = np.sin(1.3 * X[:, 0]) * np.sinh(X[:, 1])
        g[:, 1, 0] = -np.sin(X[:, 0]) * X[:, 1] + 0.1
        g[:, 1, 1] = np.cos(X[:, 0])
        return g[:, :cs.m, :]

    def F(X):
        g = gstar(X)
        u = ustar(X)
        return (np.einsum("pqij,kjq->kip", A0, g)
                + np.einsum("pij,kj->kip", B0, u))

    def H(X):
        g = gstar(X)
        u = ustar(X)
        return -(np.einsum("qij,kjq->ki", C0, g) + np.einsum("ij,kj->ki", D0, u))

    system = assemble(mesh, cs, rhs=RightHandSide(H=H, F=F))
    fixed = mesh.vertex_tags != 0
    bc = BoundaryAssignment(values=ustar(mesh.vertices), fixed=fixed)
    sol = solve_dirichlet(system, bc)
    diff = sol.values - ustar(mesh.vertices)
    c_vals = diff[mesh.triangles].mean(axis=1)
    l2 = float(np.sqrt(np.sum(mesh.areas() * np.sum(c_vals**2, axis=1))))
    gd = sol.gradients() - gstar(mesh.centroids())
    h1 = float(np.sqrt(np.sum(mesh.areas() * np.sum(gd**2, axis=(1, 2)))))
    return l2, h1


def test_lower_order_field_vanishing_at_origin_is_assembled():
    # D(x) = |x| I is zero at the origin yet changes the operator; the grid
    # twin, which has no lower-order terms, refuses it
    base = identity_coefficients(m=1)
    cs = CoefficientSet(m=1, A=base.A, B=None, Cc=None,
                        D=lambda X: np.linalg.norm(X, axis=1)[:, None, None] * np.eye(1),
                        lam=1.0, kappa3=3.0, name="distance_D")
    geom = GapGeometry(0.1, GAMMA)
    mesh = generate(geom, grade(geom, 1.0, 0.1, 0.5), 4)
    K0 = assemble(mesh, base).K
    K = assemble(mesh, cs).K
    assert abs(K - K0).max() > 1e-6
    with pytest.raises(OracleError, match="B = C = D = 0"):
        finite_difference_reference(cs, 0.5, 0.1, 10, 10,
                                    boundary=lambda X: np.zeros((np.atleast_2d(X).shape[0], 1)))


def test_replacing_a_field_of_a_constant_set_assembles_the_new_field():
    geom = GapGeometry(0.1, GAMMA)
    mesh = generate(geom, grade(geom, 1.0, 0.1, 0.5), 4)
    D = lambda X: np.linalg.norm(X, axis=1)[:, None, None] * np.eye(1)
    replaced = dataclasses.replace(identity_coefficients(), D=D)
    direct = CoefficientSet(m=1, A=identity_coefficients().A, B=None, Cc=None, D=D,
                            lam=1.0, kappa3=3.0)
    assert abs(assemble(mesh, replaced).K - assemble(mesh, direct).K).max() == 0.0


def test_a_variable_leading_field_is_evaluated_once_per_edge_midpoint_batch():
    geom = GapGeometry(0.1, GAMMA)
    mesh = generate(geom, grade(geom, 1.0, 0.1, 0.5), 4)
    cs = holder_demo_coefficients(GAMMA)
    batches = []
    counted = dataclasses.replace(cs, A=lambda X: batches.append(len(X)) or cs.A(X))
    assemble(mesh, counted)
    assert batches == [mesh.num_triangles] * 3


def test_a_source_of_the_wrong_shape_raises():
    geom = GapGeometry(0.1, GAMMA)
    mesh = generate(geom, grade(geom, 1.0, 0.1, 0.5), 4)
    H = lambda X: np.ones((len(X), 2)).T            # (m, k) instead of (k, m)
    with pytest.raises(ValueError, match=r"field H has shape \(2, \d+\), expected \(\d+, 2\)"):
        assemble(mesh, identity_coefficients(m=2), rhs=RightHandSide(H=H))


@pytest.mark.parametrize("make_cs", [
    lambda: identity_coefficients(m=2),
    _full_coefficient_set,
])
def test_manufactured_solution_converges(make_cs):
    cs = make_cs()
    geom = GapGeometry(0.1, GAMMA)
    mesh = generate(geom, grade(geom, 1.0, 0.1, 0.5), 4)
    errs = []
    for level in range(3):
        errs.append(_manufactured(cs, mesh))
        if level < 2:
            mesh = refine(mesh)
    hs = [2.0 ** (-k) for k in range(3)]
    rate_l2, _ = fit_rate(list(zip(hs, [e[0] for e in errs])))
    rate_h1, _ = fit_rate(list(zip(hs, [e[1] for e in errs])))
    assert rate_l2 == pytest.approx(2.0, abs=0.3)
    assert rate_h1 == pytest.approx(1.0, abs=0.3)


def test_superposition_of_component_solutions():
    geom = GapGeometry(EPS, GAMMA)
    mesh = generate(geom, grade(geom, 1.0, 0.02, 0.75), 8)
    cs = lame_as_general(LameParameters(1.0, 1.0))
    data = BoundaryData.constant([1.0, 0.5], [0.0, -0.25])
    system = assemble(mesh, cs)
    u = solve_dirichlet(system, dirichlet_values(mesh, data))
    parts = [solve_dirichlet(system, dirichlet_values(mesh, data.only(ell)))
             for ell in range(2)]
    total = sum(p.values for p in parts)
    assert np.max(np.abs(u.values - total)) <= 10 * 1e-10 * max(1.0, np.abs(u.values).max())


def test_component_with_zero_data_vanishes_for_decoupled_system():
    geom = GapGeometry(EPS, GAMMA)
    mesh = generate(geom, grade(geom, 1.0, 0.05, 0.5), 6)
    cs = identity_coefficients(m=2)
    data = BoundaryData.constant([1.0, 0.0], [0.0, 0.0])
    system = assemble(mesh, cs)
    v1 = solve_dirichlet(system, dirichlet_values(mesh, data.only(1)))
    assert np.max(np.abs(v1.values)) == 0.0


def test_single_component_system_reduces_to_plain_solve():
    geom = GapGeometry(EPS, GAMMA)
    mesh = generate(geom, grade(geom, 1.0, 0.05, 0.5), 6)
    cs = identity_coefficients(m=1)
    data = BoundaryData.constant([1.0], [0.0])
    system = assemble(mesh, cs)
    u = solve_dirichlet(system, dirichlet_values(mesh, data))
    v = solve_dirichlet(system, dirichlet_values(mesh, data.only(0)))
    assert np.array_equal(u.values, v.values)


def test_difference_vanishes_on_gap_boundaries():
    geom = GapGeometry(EPS, GAMMA)
    mesh = generate(geom, grade(geom, 1.0, 0.02, 0.75), 8)
    cs = lame_as_general(LameParameters(1.0, 1.0))
    data = BoundaryData.constant([1.0, 0.0], [0.0, 0.0])
    system = assemble(mesh, cs)
    data = data.only(0)
    v = solve_dirichlet(system, dirichlet_values(mesh, data))
    w = v.values - field_values(geom, data, mesh.vertices)
    gap = (mesh.vertex_tags == 1) | (mesh.vertex_tags == 2)
    assert np.max(np.abs(w[gap])) < 1e-10


def test_difference_gradient_splits_into_interpolation_error():
    geom = GapGeometry(EPS, GAMMA)
    data = BoundaryData.constant([1.0, 0.0], [0.0, 0.0]).only(0)
    cs = lame_as_general(LameParameters(1.0, 1.0))
    errs = []
    mesh = generate(geom, grade(geom, 0.5, 0.04, 0.5), 8)
    for _ in range(2):
        system = assemble(mesh, cs)
        v = solve_dirichlet(system, dirichlet_values(mesh, data))
        w = DiscreteSolution(mesh=mesh, values=v.values - field_values(geom, data, mesh.vertices))
        analytic = field_gradients(geom, data, mesh.centroids())
        resid = w.gradients() - (v.gradients() - analytic)
        scale = np.maximum(np.abs(analytic).max(axis=(1, 2)), 1.0)
        errs.append(float(np.max(np.abs(resid).max(axis=(1, 2)) / scale)))
        mesh = refine(mesh)
    assert errs[1] < errs[0]            # interpolation error shrinks under refinement


def test_gradient_at_affine_field_exact():
    geom = GapGeometry(EPS, GAMMA)
    mesh = generate(geom, grade(geom, 1.0, 0.05, 0.5), 6)
    b = np.array([0.7, -0.3])
    vals = (mesh.vertices @ b)[:, None]
    sol = DiscreteSolution(mesh=mesh, values=vals)
    g = gradient_at(sol, (0.1, 0.0))
    assert np.allclose(g, b[None, :], atol=1e-12)


@pytest.mark.parametrize("cs", [lame_as_general(LameParameters(1.0, 1.0)),
                                identity_coefficients()], ids=["lame", "scalar"])
def test_gradient_at_gathers_the_rows_of_all_gradients(cs):
    geom = GapGeometry(EPS, GAMMA)
    mesh = generate(geom, grade(geom, 1.0, 0.05, 0.5), 6)
    data = BoundaryData.polynomial([[1.0, 0.5, 1.0]] + [[0.2]] * (cs.m - 1),
                                   [[0.0]] + [[0.0, -0.3]] * (cs.m - 1), geom)
    sol = solve_dirichlet(assemble(mesh, cs), dirichlet_values(mesh, data))
    xp = np.linspace(-0.45, 0.45, 19)
    pts = np.stack([xp, geom.midline(xp)], axis=1)
    g = gradient_at(sol, pts)
    assert g.shape == (19, cs.m, 2)
    assert np.array_equal(g, sol.gradients()[mesh.locate(pts)])
    assert np.array_equal(gradient_at(sol, (0.0, 0.0)), sol.gradients()[mesh.locate((0.0, 0.0))])


def test_gradient_at_on_a_refined_mesh_is_the_whole_mesh_formula_bit_for_bit():
    # the located triangles' gradients equal the whole mesh's rows bit for bit,
    # and the solution of each corner system [1, x, y] c = u to 1e-12 relative
    cs = lame_as_general(LameParameters(1.0, 1.0))
    geom = GapGeometry(1e-3, GAMMA)
    fine = refine(generate(geom, grade(geom, 1.0, 0.05, 0.5), 6))
    data = BoundaryData.polynomial([[1.0, 0.5, 1.0], [0.2]], [[0.0], [0.0, -0.3]], geom)
    sol = solve_dirichlet(assemble(fine, cs), dirichlet_values(fine, data))
    pts = probe_points(geom)
    g = gradient_at(sol, pts)
    t = fine.locate(pts)
    assert np.array_equal(g, sol.gradients()[t])
    assert np.array_equal(g, sol.gradients(t))
    for tri, gt in zip(fine.triangles[t], g):
        corners = np.column_stack([np.ones(3), fine.vertices[tri]])
        want = np.linalg.solve(corners, sol.values[tri])[1:].T
        assert np.max(np.abs(gt - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("read", ["value_at", "value_at_one_point", "gradient_at",
                                  "remainder_energy"])
def test_point_reads_and_slab_energies_form_only_their_triangles(monkeypatch, read):
    # a spy on the P1 gradient kernel, under both names it is called by: each
    # call of a read of k points forms at most k triangles, of a slab's energy
    # (its gradients, then its areas) the slab's own
    geom = GapGeometry(EPS, GAMMA)
    mesh = generate(geom, grade(geom, 0.5, 0.01, 0.75), 8)
    rng = np.random.default_rng(3)
    sol = DiscreteSolution(mesh=mesh, values=rng.normal(size=(mesh.num_vertices, 1)))
    region = LocalRegion(np.array([0.2, geom.midline(0.2)]), geom.gap_width(0.2), geom)
    mask = region.contains(mesh.centroids())
    pts = region.sample_points(7, seed=1, tag=0)
    reads = {"value_at": (lambda: value_at(sol, pts), len(pts)),
             "value_at_one_point": (lambda: value_at(sol, pts[0]), 1),
             "gradient_at": (lambda: gradient_at(sol, pts), len(pts)),
             "remainder_energy": (lambda: remainder_energy(sol, ZERO_DATA, region),
                                  int(mask.sum()))}
    formed, kernel = [], mesh_module.p1_gradients

    def spy(x, y):
        formed.append(x.shape[1])
        return kernel(x, y)

    monkeypatch.setattr(mesh_module, "p1_gradients", spy)
    monkeypatch.setattr(solver, "p1_gradients", spy)
    call, most = reads[read]
    call()
    assert formed and max(formed) <= most < mesh.num_triangles


def test_value_at_reproduces_affine_field_and_barycentric_values():
    geom = GapGeometry(EPS, GAMMA)
    mesh = generate(geom, grade(geom, 1.0, 0.05, 0.5), 6)
    b = np.array([[0.7, -0.3], [-1.1, 2.0]])
    sol = DiscreteSolution(mesh=mesh, values=mesh.vertices @ b.T + np.array([0.5, -2.0]))
    x = np.array([0.1, 0.001])
    assert np.allclose(value_at(sol, x), b @ x + np.array([0.5, -2.0]), rtol=0, atol=1e-13)
    rng = np.random.default_rng(5)
    curved = DiscreteSolution(mesh=mesh, values=rng.normal(size=(mesh.num_vertices, 2)))
    region = LocalRegion(np.array([0.0, 0.0]), 0.4, geom)
    pts = region.sample_points(200, seed=5, tag=0)
    batch = value_at(curved, pts)
    assert batch.shape == (200, 2)
    assert gradient_at(curved, pts).shape == (200, 2, 2)
    for p, v in zip(pts, batch):
        tri = mesh.triangles[mesh.locate(p)]
        T = (mesh.vertices[tri[1:]] - mesh.vertices[tri[0]]).T
        l12 = np.linalg.solve(T, p - mesh.vertices[tri[0]])
        bary = np.array([1 - l12.sum(), *l12]) @ curved.values[tri]
        assert np.allclose(value_at(curved, p), bary, rtol=0, atol=1e-12)
        assert np.allclose(v, bary, rtol=0, atol=1e-12)


# zero data: remainder_energy then measures the plain energy
ZERO_DATA = BoundaryData.constant([0.0], [0.0])


def test_remainder_energy_affine_field_matches_area():
    geom = GapGeometry(EPS, GAMMA)
    mesh = generate(geom, grade(geom, 0.5, 0.01, 0.75), 8)
    b = np.array([2.0, 1.0])
    sol = DiscreteSolution(mesh=mesh, values=(mesh.vertices @ b)[:, None])
    region = LocalRegion(np.array([0.2, geom.midline(0.2)]), 0.15, geom)
    got = remainder_energy(sol, ZERO_DATA, region)
    # exact area of the slab by fine quadrature of the gap width
    xs = np.linspace(0.05, 0.35, 20001)
    area = float(np.trapezoid(geom.gap_width(xs), dx=0.3 / 20000))
    assert got == pytest.approx(float(b @ b) * area, rel=0.02)
    zero = DiscreteSolution(mesh=mesh, values=np.zeros((mesh.num_vertices, 1)))
    assert remainder_energy(zero, ZERO_DATA, region) == 0.0


def test_crossing_profile_energy_lower_bound():
    geom = GapGeometry(EPS, GAMMA)
    mesh = generate(geom, grade(geom, 0.5, 0.01, 0.75), 8)
    from thingap.auxiliary import gap_fraction
    vals = np.atleast_1d(gap_fraction(geom, mesh.vertices))[:, None]
    sol = DiscreteSolution(mesh=mesh, values=vals)
    region = LocalRegion(np.array([0.0, 0.0]), 0.75, geom)
    got = remainder_energy(sol, ZERO_DATA, region)
    xs = np.linspace(-0.75, 0.75, 40001)
    leading = float(np.trapezoid(1.0 / geom.gap_width(xs), dx=1.5 / 40000))
    assert got >= 0.95 * leading


def test_lame_first_component_tracks_crossing_profile():
    # with a unit jump in component 0 only, the first solution component
    # follows the scalar crossing profile along the centerline; the
    # difference is the small remainder
    from thingap.auxiliary import gap_fraction
    eps = 1e-2
    geom = GapGeometry(eps, GAMMA)
    mesh = generate(geom, grade(geom, 1.0, 0.02, 1.0), 12)
    cs = lame_as_general(LameParameters(1.0, 1.0))
    data = BoundaryData.constant([1.0, 0.0], [0.0, 0.0])
    u = solve_dirichlet(assemble(mesh, cs), dirichlet_values(mesh, data))
    worst = 0.0
    for t in np.linspace(-0.45 * eps, 0.45 * eps, 21):
        u1 = float(value_at(u, (0.0, t))[0])
        worst = max(worst, abs(u1 - gap_fraction(geom, np.array([0.0, t]))))
    assert worst < 0.05


def test_lateral_closure_insensitivity_in_the_interior():
    # every command imposes the data extension on the lateral sides; the
    # natural closure fixes only the top and bottom rows and leaves the
    # lateral ones free.  Interior gradients at |x'| <= 1/4 barely notice.
    geom, data, system = SweepPlan().problem(1e-2)
    mesh = system.mesh
    extension = dirichlet_values(mesh, data)
    natural = BoundaryAssignment(values=extension.values,
                                 fixed=np.isin(mesh.vertex_tags, (TAG_TOP, TAG_BOTTOM)))
    xp = np.linspace(-0.25, 0.25, 33)
    t = mesh.locate(np.stack([xp, geom.midline(xp)], axis=1))
    ga = solve_dirichlet(system, extension).gradients(t)
    gn = solve_dirichlet(system, natural).gradients(t)

    def frob(g):
        return np.sqrt(np.sum(g * g, axis=(1, 2)))

    worst = float(np.max(frob(ga - gn) / np.maximum(np.maximum(frob(ga), frob(gn)), 1e-300)))
    assert worst < 0.02


def test_solver_reports_shape_mismatch():
    geom = GapGeometry(EPS, GAMMA)
    mesh = generate(geom, grade(geom, 1.0, 0.05, 0.5), 6)
    system = assemble(mesh, identity_coefficients())
    bad = BoundaryAssignment(values=np.zeros((3, 1)), fixed=np.zeros(3, dtype=bool))
    with pytest.raises(SolverError):
        solve_dirichlet(system, bad)


def test_l2_norm_of_constant_field():
    geom = GapGeometry(EPS, GAMMA)
    mesh = generate(geom, grade(geom, 1.0, 0.05, 0.5), 6)
    sol = DiscreteSolution(mesh=mesh, values=np.full((mesh.num_vertices, 1), 2.0))
    got = l2_norm(sol)
    assert got == pytest.approx(2.0 * np.sqrt(np.sum(mesh.areas())), rel=1e-12)


def test_constant_field_assembly_is_quadrature_independent():
    # the centroid rule is exact for a constant leading field; the zeroth-order
    # mass term is quadratic and keeps the 3-point rule
    geom = GapGeometry(1e-2, GAMMA)
    mesh = generate(geom, grade(geom, 2.0, 0.05, 0.5), 6)
    lame = lame_as_general(LameParameters(1.0, 1.0))
    with_mass = dataclasses.replace(lame, D=np.eye(2), name="lame_mass")
    A0 = lame.A
    rule = lambda X: np.broadcast_to(A0, (len(X),) + A0.shape)
    for cs in (lame, with_mass):
        K = assemble(mesh, cs).K
        pointwise = assemble(mesh, dataclasses.replace(cs, A=rule)).K
        assert abs(K - pointwise).max() <= 1e-13 * abs(pointwise).max()


def _free_block(system, bc):
    fixed = bc.dof_mask()
    K_ff = system.K[~fixed][:, ~fixed]
    rhs = system.load[~fixed] - system.K[~fixed][:, fixed] @ bc.values.ravel()[fixed]
    return K_ff, rhs


def _routine_module(name):
    """Where ``thingap.solver`` finds LAPACK routine ``<name>``: the Cholesky pair
    in ``_lapack`` (bound into the solver's namespace), banded LU in
    ``scipy.linalg.lapack`` (imported where it runs)."""
    if name in _lapack.ROUTINES:
        assert getattr(solver, name) is getattr(_lapack, name)
        return solver
    assert not hasattr(solver, name)
    return lapack


def _spy(monkeypatch, name):
    """Replace the LAPACK routine ``<name>`` that ``thingap.solver`` calls by a
    mock that counts its calls."""
    module = _routine_module(name)
    spy = Mock(wraps=getattr(module, name))
    monkeypatch.setattr(module, name, spy)
    return spy


@pytest.mark.parametrize("refined", [False, True], ids=["mesh", "refined"])
def test_lame_solve_takes_the_band_and_matches_colamd(monkeypatch, refined):
    geom = GapGeometry(1e-3, GAMMA)
    mesh = generate(geom, grade(geom, 2.0, 0.02, 1.0), 12)
    mesh = refine(mesh) if refined else mesh
    system = assemble(mesh, lame_as_general(LameParameters(1.0, 1.0)))
    bc = dirichlet_values(mesh, BoundaryData.constant([1.0, 0.0], [0.0, 0.0]))
    band, lu = _spy(monkeypatch, "dpbtrf"), _spy(monkeypatch, "dgbtrf")
    x = solve_dirichlet(system, bc).values.ravel()[~bc.dof_mask()]
    assert (band.call_count, lu.call_count) == (1, 0)
    assert "K" not in system.__dict__   # no solve builds the sparse matrix
    K_ff, rhs = _free_block(system, bc)
    coo = K_ff.tocoo()
    # vertex-major dofs on the layered mesh: half-bandwidth L*m + m - 1
    assert np.max(np.abs(coo.row - coo.col)) == mesh.layers * 2 + 1
    ref = splu(K_ff.tocsc(), permc_spec="COLAMD").solve(rhs)
    assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)


def _symmetric_indefinite():
    """Identity leading part with a mass term large enough to make K_ff indefinite."""
    base = identity_coefficients(m=1)
    return dataclasses.replace(base, D=3000.0 * np.eye(1), name="indefinite_D")


@pytest.mark.parametrize("make_cs, symmetric", [(_full_coefficient_set, False),
                                                (_symmetric_indefinite, True)])
def test_operators_that_are_not_spd_solve_by_lu(monkeypatch, make_cs, symmetric):
    cs = make_cs()
    geom = GapGeometry(0.1, GAMMA)
    mesh = generate(geom, grade(geom, 1.0, 0.05, 0.5), 6)
    system = assemble(mesh, cs)
    bc = dirichlet_values(mesh, BoundaryData.constant([1.0] * cs.m, [0.0] * cs.m))
    K_ff, rhs = _free_block(system, bc)
    assert (abs(K_ff - K_ff.T).max() <= 1e-12 * abs(K_ff).max()) == symmetric
    if symmetric:
        eig = np.linalg.eigvalsh(K_ff.toarray())
        assert eig[0] < 0 < eig[-1]
    band, lu = _spy(monkeypatch, "dpbtrf"), _spy(monkeypatch, "dgbtrf")
    x = solve_dirichlet(system, bc).values.ravel()[~bc.dof_mask()]
    # a symmetric K_ff tries the band first; Cholesky fails on it
    assert (band.call_count, lu.call_count) == (int(symmetric), 1)
    assert np.linalg.norm(K_ff @ x - rhs) <= 1e-10 * np.linalg.norm(rhs)
    ref = splu(K_ff.tocsc()).solve(rhs)
    assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)


def _lame():
    return lame_as_general(LameParameters(1.0, 1.0))


def _band_of(dense, rows, diag):
    """LAPACK band storage of a dense matrix: entry (i, j) at ``[diag + i - j, j]``."""
    n = dense.shape[0]
    ab = np.zeros((rows, n))
    for r in range(rows):
        d = r - diag                    # i - j
        if 0 <= d < n:
            ab[r, :n - d] = np.diagonal(dense, -d)
        elif -n < d < 0:
            ab[r, -d:] = np.diagonal(dense, -d)
    return ab


@pytest.mark.parametrize("make_cs, factor", [(_lame, "dpbtrf"),
                                             (_full_coefficient_set, "dgbtrf")],
                         ids=["cholesky", "lu"])
def test_blocked_band_matches_the_reference_operator(monkeypatch, make_cs, factor):
    cs = make_cs()
    geom = GapGeometry(0.1, GAMMA)
    mesh = generate(geom, grade(geom, 1.0, 0.05, 0.5), 6)
    system = assemble(mesh, cs)
    free = ~dirichlet_values(mesh, BoundaryData.constant([1.0, 0.0], [0.0, 0.0])).dof_mask()
    T = system.E.shape[2]
    assert T % 7 and T % 64
    bands = []
    module = _routine_module(factor)
    exact = getattr(module, factor)

    def capture(ab, *args, **kwargs):
        bands.append(ab.copy())         # the factorization overwrites it
        return exact(ab, *args, **kwargs)

    monkeypatch.setattr(module, factor, capture)
    # single elements, several blocks with a partial last one, one block beyond T
    for block in (1, 7, 64, T + 5):
        monkeypatch.setattr(solver, "BLOCK", block)
        system._band_solver(free)
    assert len(bands) == 4
    assert all(np.array_equal(b, bands[0]) for b in bands[1:])   # same sums, same order
    rows = bands[0].shape[0]
    kd = rows - 1 if factor == "dpbtrf" else (rows - 1) // 3
    assert kd == mesh.layers * cs.m + cs.m - 1
    K_ff = system.K[free][:, free].toarray()
    ref = _band_of(K_ff, rows, 0 if factor == "dpbtrf" else 2 * kd)
    np.testing.assert_allclose(bands[0], ref, rtol=0, atol=1e-13 * np.abs(K_ff).max())


def _smooth_sources(m):
    """Nonpolynomial H and F, so that every edge midpoint's value counts."""
    H = lambda X: np.stack([np.sin(3.0 * X[:, 0] + i) * np.exp(X[:, 1]) for i in range(m)],
                           axis=1)
    F = lambda X: np.stack([np.cos(X + i) for i in range(m)], axis=1) * X[:, None, :1]
    return RightHandSide(H=H, F=F)


@pytest.mark.parametrize("make_cs, sources", [
    (lambda: holder_demo_coefficients(GAMMA), False),
    (_full_coefficient_set, True),
], ids=["holder_demo", "full_with_sources"])
def test_assembly_does_not_depend_on_the_block_size(monkeypatch, make_cs, sources):
    # every term of an element is formed from its own block's slice, so the
    # element matrices and the load are the same bits whatever the block size
    cs = make_cs()
    geom = GapGeometry(0.1, GAMMA)
    mesh = generate(geom, grade(geom, 1.0, 0.05, 0.5), 6)
    rhs = _smooth_sources(cs.m) if sources else None
    T = mesh.num_triangles
    assert T % 7 and T % 64
    systems = []
    # single elements, several blocks with a partial last one, one block beyond T
    for block in (1, 7, 64, T + 5):
        monkeypatch.setattr(solver, "BLOCK", block)
        systems.append(assemble(mesh, cs, rhs))
    assert np.any(systems[0].load != 0.0) == sources
    for other in systems[1:]:
        assert np.array_equal(other.E, systems[0].E)
        assert np.array_equal(other.load, systems[0].load)


def _value(field, x, shape):
    """A coefficient field at one point: zero, the array, or the rule's row."""
    if field is None:
        return np.zeros(shape)
    return np.asarray(field(x[None, :]) if callable(field) else field, dtype=float).reshape(shape)


def _naive_element(P, cs, rhs):
    """Element matrix (3m, 3m) and load (3m,) of the triangle with corners P (3, 2),
    the weak form summed term by term with explicit loops."""
    m = cs.m
    inv = np.linalg.inv(np.array([P[1] - P[0], P[2] - P[0]]))
    G = np.array([-inv[:, 0] - inv[:, 1], inv[:, 0], inv[:, 1]])     # G[a, p]
    area = abs(np.linalg.det(np.array([P[1] - P[0], P[2] - P[0]]))) / 2
    mids = [((P[k] + P[l]) / 2, [0.5 * (a in (k, l)) for a in range(3)])
            for k, l in ((0, 1), (1, 2), (2, 0))]
    E, f = np.zeros((3, m, 3, m)), np.zeros((3, m))
    # a constant A by the centroid rule, a rule A at the edge midpoints
    A_points = [(x, area / 3) for x, _ in mids] if callable(cs.A) else [(P.mean(0), area)]
    for x, w in A_points:
        A = _value(cs.A, x, (2, 2, m, m))
        for a, i, b, j, p, q in itertools.product(range(3), range(m), range(3), range(m),
                                                  range(2), range(2)):
            E[a, i, b, j] += w * A[p, q, i, j] * G[a, p] * G[b, q]
    for x, phi in mids:
        w = area / 3
        B, C = _value(cs.B, x, (2, m, m)), _value(cs.Cc, x, (2, m, m))
        D = _value(cs.D, x, (m, m))
        H = _value(rhs.H if rhs else None, x, (m,))
        F = _value(rhs.F if rhs else None, x, (m, 2))
        for a, i, b, j in itertools.product(range(3), range(m), range(3), range(m)):
            for p in range(2):
                E[a, i, b, j] += w * B[p, i, j] * G[a, p] * phi[b]
                E[a, i, b, j] -= w * C[p, i, j] * phi[a] * G[b, p]
            E[a, i, b, j] -= w * D[i, j] * phi[a] * phi[b]
        for a, i in itertools.product(range(3), range(m)):
            f[a, i] += w * H[i] * phi[a]
            for p in range(2):
                f[a, i] += w * F[i, p] * G[a, p]
    return E.reshape(3 * m, 3 * m), f.ravel()


def _generic_coefficients(variable):
    """Every field nonzero and without symmetry (i <-> j, p <-> q, B <-> C);
    ``variable``: rules scaled by a position-dependent factor."""
    rng = np.random.default_rng(3)
    A, B, C, D = (rng.uniform(-1, 1, shape) for shape in ((2, 2, 2, 2), (2, 2, 2), (2, 2, 2),
                                                          (2, 2)))
    if not variable:
        return CoefficientSet(m=2, A=A, B=B, Cc=C, D=D, lam=1.0, kappa3=10.0)

    def rule(value):
        return lambda X: (1 + X[:, 0] - 2 * X[:, 1] ** 2).reshape(-1, *[1] * value.ndim) * value

    return CoefficientSet(m=2, A=rule(A), B=rule(B), Cc=rule(C), D=rule(D), lam=1.0,
                          kappa3=10.0)


@pytest.mark.parametrize("make_cs, sources", [
    (lambda: _generic_coefficients(False), True),
    (lambda: _generic_coefficients(True), True),
    (lambda: holder_demo_coefficients(GAMMA, m=2), False),
], ids=["constant_with_sources", "rules_with_sources", "holder_demo"])
def test_every_assembled_term_matches_a_naive_element_loop(make_cs, sources):
    cs = make_cs()
    geom = GapGeometry(0.1, GAMMA)
    mesh = generate(geom, grade(geom, 1.0, 0.1, 0.5), 4)
    picked = mesh.triangles[[0, 1, 9, mesh.num_triangles // 2, mesh.num_triangles - 1]]
    few = dataclasses.replace(mesh, triangles=picked)
    rhs = _smooth_sources(cs.m) if sources else None
    system = assemble(few, cs, rhs)
    load = np.zeros_like(system.load)
    for k, tri in enumerate(picked):
        E, f = _naive_element(mesh.vertices[tri], cs, rhs)
        np.testing.assert_allclose(system.E[..., k], E, rtol=0, atol=1e-13 * np.abs(E).max())
        np.add.at(load, system.dofs[:, k], f)
    assert np.any(load != 0.0) == sources
    np.testing.assert_allclose(system.load, load, rtol=0, atol=1e-13 * np.abs(load).max())


def test_dirichlet_lift_from_boundary_elements_equals_the_all_element_lift():
    # the elements without a fixed dof add exact zeros to K_fc u_c, so the
    # lift over the boundary elements alone, and the solve, are bit-identical
    _, data, system = SweepPlan().problem(1e-3)
    bc = dirichlet_values(system.mesh, data)
    fixed = bc.dof_mask()
    full = np.where(fixed, bc.values.ravel(), 0.0)
    every = system._apply(full)
    np.testing.assert_allclose(every, system.K @ full, rtol=0,
                               atol=1e-13 * float(np.max(np.abs(system.E))))
    solve, free, boundary = system._factor(fixed)
    assert 0 < boundary.size < system.E.shape[2] // 4
    assert np.array_equal(system._apply(full, boundary), every)
    lifted = solve_dirichlet(system, bc)
    system._lu_cache[fixed.tobytes()] = (solve, free, np.arange(system.E.shape[2]))
    assert np.array_equal(solve_dirichlet(system, bc).values, lifted.values)


def _gate_mesh():
    """The 24-layer eps = 1e-3 sweep mesh refined to 48 layers, its Lame
    coefficients and boundary data."""
    _, data, coarse = SweepPlan(mesh_layers=24).problem(1e-3)
    return refine(coarse.mesh), coarse.cs, data


def _peak_bytes(call):
    """``call()`` and the peak of the memory it allocated, by ``tracemalloc``."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_assembly_allocates_little_beyond_the_element_matrices():
    # each block's terms are summed in block-sized arrays and written into E
    # once: beyond what the system keeps (E, dofs, load), a few blocks
    fine, cs, _ = _gate_mesh()
    system, peak = _peak_bytes(lambda: assemble(fine, cs))
    block = solver.BLOCK * (3 * cs.m) ** 2 * 8       # one block of element matrices
    assert fine.num_triangles > 8 * solver.BLOCK
    assert peak <= system.E.nbytes + system.dofs.nbytes + system.load.nbytes + 4 * block


def test_factorization_allocates_little_beyond_the_band():
    # the band is the only operator-sized array: beside it, the band positions
    # of the element dofs (as large as dofs) and vectors of 1 MiB in all; a
    # temporary as large as E (here 0.38 of the band) does not fit
    fine, cs, data = _gate_mesh()
    system = assemble(fine, cs)
    fixed = dirichlet_values(fine, data).dof_mask()
    band_bytes = int((~fixed).sum()) * (fine.layers * 2 + 2) * 8
    assert system.E.nbytes > system.dofs.nbytes + 2**20
    _, peak = _peak_bytes(lambda: system._factor(fixed))
    assert peak <= band_bytes + system.dofs.nbytes + 2**20


@pytest.mark.parametrize("a, message", [(np.nan, "relative residual nan"),
                                        (0.0, "zero pivot")], ids=["nan", "zero"])
def test_nan_or_zero_leading_field_raises(a, message):
    # NaN compares False with every tolerance, so the residual gate must
    # reject it; a zero operator must stop at the banded LU's zero pivot
    cs = dataclasses.replace(identity_coefficients(m=1),
                             A=np.full((2, 2, 1, 1), a))
    geom = GapGeometry(0.1, GAMMA)
    mesh = generate(geom, grade(geom, 1.0, 0.05, 0.5), 4)
    bc = dirichlet_values(mesh, BoundaryData.constant([1.0], [0.0]))
    with pytest.raises(SolverError, match=message):
        solve_dirichlet(assemble(mesh, cs), bc)
