import numpy as np
import pytest

from thingap.auxiliary import AuxiliaryField, BoundaryData, field_gradients, \
    gap_fraction, holder_seminorm
from thingap.coefficients import LameParameters, identity_coefficients, lame_as_general
from thingap.geometry import GapGeometry, LocalRegion
from thingap.mesh import generate
from thingap.oracle import (AffineCase, OracleError, brute_force_seminorm,
                            finite_difference_reference)
from thingap.solver import assemble, dirichlet_values, grid_distance, solve_dirichlet


def test_affine_case_values():
    eps = 0.05
    case = AffineCase(eps)
    assert case.solution(np.array([[0.0, eps / 2]]))[0, 0] == pytest.approx(1.0)
    g = case.gradient(np.array([[0.1, 0.0]]))
    assert np.allclose(g, [[[0.0, 1.0 / eps]]])


def test_solver_matches_affine_case_at_all_nodes():
    eps = 0.05
    case = AffineCase(eps)
    geom = case.geometry()
    mesh = generate(geom, layers=6, aspect=2.0, dxmax=0.1, xrange=1.0)
    sol = solve_dirichlet(assemble(mesh, identity_coefficients()),
                          dirichlet_values(mesh, case.data()))
    assert np.max(np.abs(sol.values - case.solution(mesh.vertices))) < 1e-10


def test_grid_twin_reproduces_affine_data():
    eps = 0.1
    case = AffineCase(eps)
    grid = finite_difference_reference(identity_coefficients(), 0.5, eps, 40, 16,
                                       boundary=case.solution)
    X = np.stack(np.meshgrid(grid.xs, grid.ys, indexing="ij"), axis=-1).reshape(-1, 2)
    want = case.solution(X).reshape(grid.values.shape)
    assert np.max(np.abs(grid.values - want)) < 1e-10


def _quadratic_top_data(eps):
    def rule(X):
        X = np.atleast_2d(X)
        u = (X[:, 1] + eps / 2) / eps
        return ((1.0 + X[:, 0] ** 2) * u)[:, None]
    return rule


def test_grid_twin_vs_fem_joint_refinement():
    eps = 0.1
    geom = GapGeometry.flat(eps)
    data = BoundaryData.polynomial([[1.0, 0.0, 1.0]], [[0.0]], geom)
    cs = identity_coefficients()
    rule = _quadratic_top_data(eps)
    diffs = []
    for nx, ny, dx in ((80, 32, 0.025), (160, 64, 0.0125)):
        grid = finite_difference_reference(cs, 0.5, eps, nx, ny, boundary=rule)
        mesh = generate(geom, layers=ny // 4, aspect=2.0, dxmax=dx, xrange=0.5)
        sol = solve_dirichlet(assemble(mesh, cs), dirichlet_values(mesh, data))
        diffs.append(grid_distance(sol, grid))
    assert diffs[0] <= 0.01
    assert diffs[1] < diffs[0]          # joint refinement shrinks the disagreement


def test_grid_twin_lame_agreement():
    eps = 0.1
    geom = GapGeometry.flat(eps)
    cs = lame_as_general(LameParameters(1.0, 1.0), 2)
    data = BoundaryData.polynomial([[1.0, 0.0, 1.0], [0.0]], [[0.0], [0.0]], geom)

    def rule(X):
        X = np.atleast_2d(X)
        u = (X[:, 1] + eps / 2) / eps
        out = np.zeros((X.shape[0], 2))
        out[:, 0] = (1.0 + X[:, 0] ** 2) * u
        return out

    grid = finite_difference_reference(cs, 0.5, eps, 120, 48, boundary=rule)
    mesh = generate(geom, layers=12, aspect=2.0, dxmax=0.0125, xrange=0.5)
    sol = solve_dirichlet(assemble(mesh, cs), dirichlet_values(mesh, data))
    worst = grid_distance(sol, grid)
    assert worst <= 0.01


def test_grid_twin_rejects_variable_or_lower_order():
    from thingap.coefficients import holder_demo_coefficients
    with pytest.raises(OracleError):
        finite_difference_reference(holder_demo_coefficients(0.5), 0.5, 0.1, 10, 10,
                                    boundary=lambda X: np.zeros((np.atleast_2d(X).shape[0], 1)))


def test_brute_force_seminorm_constant_is_zero():
    geom = GapGeometry.power_law(1e-2, 0.5)
    region = LocalRegion(np.array([0.0, 0.0]), 5e-3, geom)
    got = brute_force_seminorm(lambda X: np.ones((X.shape[0], 1)), region, 0.5, grid=40)
    assert got == 0.0


def test_brute_force_dominates_sampled_estimate():
    geom = GapGeometry.power_law(1e-2, 0.5)
    region = LocalRegion(np.array([0.0, 0.0]), 5e-3, geom)
    f = lambda X: np.atleast_2d(gap_fraction(geom, X)).T
    dense = brute_force_seminorm(f, region, 0.5, grid=60)
    sampled = holder_seminorm(f, region, 0.5, pairs=4000, seed=0)
    assert dense >= sampled
    assert sampled >= 0.8 * dense


def test_brute_force_stable_under_grid_doubling():
    geom = GapGeometry.power_law(1e-2, 0.5)
    data = BoundaryData.constant([1.0], [0.0])
    fld = AuxiliaryField(geom, data, 0)
    region = LocalRegion(np.array([0.0, 0.0]), 5e-3, geom)
    f = lambda X: field_gradients(fld, X).reshape(X.shape[0], -1)
    v1 = brute_force_seminorm(f, region, 0.5, grid=35)
    v2 = brute_force_seminorm(f, region, 0.5, grid=70)
    assert abs(v2 - v1) / v2 < 0.05


def test_brute_force_refuses_oversized_grid():
    geom = GapGeometry.power_law(1e-2, 0.5)
    region = LocalRegion(np.array([0.0, 0.0]), 5e-3, geom)
    with pytest.raises(OracleError):
        brute_force_seminorm(lambda X: X, region, 0.5, grid=200)
