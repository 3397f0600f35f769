import tracemalloc

import numpy as np
import pytest

from thingap.auxiliary import BoundaryData, field_gradients, gap_fraction, holder_seminorm
from thingap.coefficients import identity_coefficients
from thingap.geometry import GapGeometry, LocalRegion
from thingap.mesh import generate, grade
from thingap.oracle import (DENSE_BLOCK_PAIRS, AffineCase, OracleError, _max_holder_quotient,
                            _row_blocks, brute_force_seminorm, finite_difference_reference)
from thingap.solver import assemble, dirichlet_values, grid_distance, solve_dirichlet


def test_affine_case_values():
    eps = 0.05
    case = AffineCase(eps)
    assert case.solution(np.array([[0.0, eps / 2]]))[0, 0] == pytest.approx(1.0)
    # the gradient is vertical with magnitude 1/epsilon everywhere
    X = np.array([[0.1, 0.0], [-0.3, 0.01]])
    h = 1e-3
    assert np.allclose(case.solution(X + [h, 0.0]), case.solution(X))
    assert np.allclose((case.solution(X + [0.0, h]) - case.solution(X)) / h, 1.0 / eps)


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
    geom = GapGeometry(eps, 0.5, 0.0, 0.0)
    data = BoundaryData.polynomial([[1.0, 0.0, 1.0]], [[0.0]], geom)
    cs = identity_coefficients()
    rule = _quadratic_top_data(eps)
    diffs = []
    for nx, ny, dx in ((80, 32, 0.025), (160, 64, 0.0125)):
        grid = finite_difference_reference(cs, 0.5, eps, nx, ny, boundary=rule)
        mesh = generate(geom, grade(geom, 2.0, dx, 0.5), ny // 4)
        sol = solve_dirichlet(assemble(mesh, cs), dirichlet_values(mesh, data))
        diffs.append(grid_distance(sol, grid))
    assert diffs[0] <= 0.01
    assert diffs[1] < diffs[0]          # joint refinement shrinks the disagreement


def test_grid_twin_rejects_variable_or_lower_order():
    from thingap.coefficients import holder_demo_coefficients
    with pytest.raises(OracleError):
        finite_difference_reference(holder_demo_coefficients(0.5), 0.5, 0.1, 10, 10,
                                    boundary=lambda X: np.zeros((np.atleast_2d(X).shape[0], 1)))


def test_brute_force_seminorm_constant_is_zero():
    geom = GapGeometry(1e-2, 0.5)
    region = LocalRegion(np.array([0.0, 0.0]), 5e-3, geom)
    got = brute_force_seminorm(lambda X: np.ones((X.shape[0], 1)), region, 0.5, grid=40)
    assert got == 0.0


def test_brute_force_dominates_sampled_estimate():
    geom = GapGeometry(1e-2, 0.5)
    region = LocalRegion(np.array([0.0, 0.0]), 5e-3, geom)
    f = lambda X: np.atleast_2d(gap_fraction(geom, X)).T
    dense = brute_force_seminorm(f, region, 0.5, grid=60)
    sampled = holder_seminorm(f, region, 0.5, pairs=4000, seed=0)
    assert dense >= sampled
    assert sampled >= 0.8 * dense


def test_brute_force_stable_under_grid_doubling():
    geom = GapGeometry(1e-2, 0.5)
    data = BoundaryData.constant([1.0], [0.0])
    region = LocalRegion(np.array([0.0, 0.0]), 5e-3, geom)
    f = lambda X: field_gradients(geom, data, X).reshape(X.shape[0], -1)
    v1 = brute_force_seminorm(f, region, 0.5, grid=35)
    v2 = brute_force_seminorm(f, region, 0.5, grid=70)
    assert abs(v2 - v1) / v2 < 0.05


def test_brute_force_refuses_oversized_grid():
    geom = GapGeometry(1e-2, 0.5)
    region = LocalRegion(np.array([0.0, 0.0]), 5e-3, geom)
    with pytest.raises(OracleError):
        brute_force_seminorm(lambda X: X, region, 0.5, grid=200)


def _naive_quotients(P, vals, gamma):
    """Reference dense seminorm: every ordered pair, one 3-D difference tensor
    per 512-row block, coincident points dropped by a boolean mask.  Returns
    the maximum and the pair that attains it."""
    best, arg = 0.0, None
    for start in range(0, P.shape[0], 512):
        d = np.linalg.norm(P[start:start + 512, None, :] - P[None, :, :], axis=2)
        dv = np.linalg.norm(vals[start:start + 512, None, :] - vals[None, :, :], axis=2)
        q = np.zeros_like(d)
        mask = d > 0
        q[mask] = dv[mask] / d[mask] ** gamma
        i, j = np.unravel_index(np.argmax(q), q.shape)
        if q[i, j] > best:
            best, arg = float(q[i, j]), (start + i, j)
    return best, arg


def _points_with_planted_maximum(k, seed=3):
    """900 random points in the unit square, smooth values in ``k`` columns,
    point 700 placed next to point 0 with a value jump (the maximizing pair),
    and three coincident pairs: two with equal values, one with unequal
    values, whose zero distance must be skipped all the same."""
    rng = np.random.default_rng(seed)
    P = rng.random((900, 2))
    vals = np.column_stack([np.sin(3 * P[:, 0] + c) * np.cos(2 * P[:, 1] - c)
                            for c in range(k)])
    P[700] = P[0] + 1e-6
    vals[700] = vals[0] + 1.0
    for src, dst in ((5, 400), (610, 611), (898, 20)):
        P[dst] = P[src]
        vals[dst] = vals[src]
    vals[20] += 1.0
    return P, vals


@pytest.mark.parametrize("gamma", [0.3, 0.5, 0.9])
@pytest.mark.parametrize("k", [1, 4])
def test_dense_kernel_matches_naive_reference(k, gamma):
    P, vals = _points_with_planted_maximum(k)
    blocks = list(_row_blocks(P.shape[0]))
    assert len(blocks) >= 3
    want, pair = _naive_quotients(P, vals, gamma)
    assert set(pair) == {0, 700}
    block_of = [blk for blk, (a, b) in enumerate(blocks) for _ in range(a, b)]
    assert block_of[0] != block_of[700]
    assert _max_holder_quotient(P, vals, gamma) == pytest.approx(want, rel=1e-13, abs=0)


@pytest.mark.parametrize("k", [1, 4])
def test_brute_force_seminorm_matches_naive_reference_on_its_grid(k):
    geom = GapGeometry(1e-2, 0.5)
    region = LocalRegion(np.array([0.0, 0.0]), 5e-3, geom)
    grids = []

    def f(X):
        grids.append(X)
        return np.column_stack([np.sin(200 * X[:, 0] + c) + np.cos(300 * X[:, 1] * (c + 1))
                                for c in range(k)])

    got = brute_force_seminorm(f, region, 0.5, grid=40)
    assert len(grids) == 1
    want, _ = _naive_quotients(grids[0], f(grids[0]), 0.5)
    assert got > 0 and got == pytest.approx(want, rel=1e-13, abs=0)


@pytest.mark.parametrize("n", [1000, 3000])
def test_dense_kernel_memory_does_not_grow_with_the_point_count(n):
    rng = np.random.default_rng(0)
    P, vals = rng.random((n, 2)), rng.random((n, 4))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _max_holder_quotient(P, vals, 0.5)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # three float64 (block, n - a) arrays, a mask and ufunc buffers
    assert peak <= 48 * DENSE_BLOCK_PAIRS
