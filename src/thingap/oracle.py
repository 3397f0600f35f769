"""Independent references: exact solutions, a finite-difference twin, brute force.

Everything here avoids the finite-element code paths on purpose: the grid
solver discretizes the strong form with difference stencils and solves by
conjugate gradients, and the seminorm reference enumerates a dense grid of
pairs.  Exact solutions live on simplified (flat) geometry; the genuinely
curved claims are checked through scaling laws, not exact formulas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import cg

from .coefficients import CoefficientSet
from .geometry import GapGeometry, LocalRegion
from .auxiliary import BoundaryData


class OracleError(RuntimeError):
    """Raised when an oracle is used outside its domain of validity."""


# relative residual of the grid twin's conjugate-gradient solve
FD_RTOL = 1e-12
# largest dense grid the exhaustive seminorm enumerates
DENSE_MAX_POINTS = 10_000


@dataclass(frozen=True)
class AffineCase:
    """Flat-rectangle scalar case with the exact affine solution.

    With unit data on the top edge and zero on the bottom, the solution is
    ``(x_n + epsilon/2) / epsilon``; its gradient is vertical with magnitude
    ``1/epsilon`` everywhere.
    """

    epsilon: float

    def solution(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return ((X[:, 1] + 0.5 * self.epsilon) / self.epsilon)[:, None]

    def gradient(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        g = np.zeros((X.shape[0], 1, 2))
        g[:, 0, 1] = 1.0 / self.epsilon
        return g

    def geometry(self) -> GapGeometry:
        return GapGeometry.flat(self.epsilon)

    def data(self) -> BoundaryData:
        return BoundaryData.constant([1.0], [0.0])


@dataclass
class GridSolution:
    """Tensor-grid nodal field from the finite-difference reference."""

    xs: np.ndarray              # (nx + 1,)
    ys: np.ndarray              # (ny + 1,)
    values: np.ndarray          # (nx + 1, ny + 1, m)


def finite_difference_reference(cs: CoefficientSet, half_width: float, epsilon: float,
                                nx: int, ny: int,
                                boundary: Callable[[np.ndarray], np.ndarray]) -> GridSolution:
    """Second-order difference solution on the rectangle [-a, a] x [-eps/2, eps/2].

    Constant leading coefficients only (the stencil contracts A with second
    differences, including the cross term); lower-order fields must be
    declared zero.  Dirichlet values on all four sides come from
    ``boundary``.  The symmetric positive system is solved by conjugate
    gradients to relative residual ``FD_RTOL``, a code path disjoint from the
    element assembly and the direct factorizations of the solver module.
    """
    if not cs.is_zero_lower_order():
        raise OracleError("finite-difference reference requires B = C = D = 0")
    if not cs.constant:
        raise OracleError("finite-difference reference supports constant coefficients only")
    m = cs.m
    A0 = np.asarray(cs.A(np.zeros(2)), dtype=float)     # (2, 2, m, m)
    xs = np.linspace(-half_width, half_width, nx + 1)
    ys = np.linspace(-0.5 * epsilon, 0.5 * epsilon, ny + 1)
    hx = xs[1] - xs[0]
    hy = ys[1] - ys[0]
    XX, YY = np.meshgrid(xs, ys, indexing="ij")
    pts = np.stack([XX.ravel(), YY.ravel()], axis=1)
    gvals = np.asarray(boundary(pts), dtype=float).reshape(nx + 1, ny + 1, m)

    node = np.arange((nx + 1) * (ny + 1)).reshape(nx + 1, ny + 1)
    interior = np.zeros((nx + 1, ny + 1), dtype=bool)
    interior[1:-1, 1:-1] = True
    unknown = -np.ones((nx + 1) * (ny + 1), dtype=np.int64)
    unknown[node[interior]] = np.arange(interior.sum())
    n_unk = int(interior.sum())

    # stencil offsets and their second-difference weights per (alpha, beta) pair
    cxx = A0[0, 0]                                      # (m, m)
    cyy = A0[1, 1]
    cxy = A0[0, 1] + A0[1, 0]
    offsets = {
        (1, 0): cxx / hx**2, (-1, 0): cxx / hx**2,
        (0, 1): cyy / hy**2, (0, -1): cyy / hy**2,
        (0, 0): -2.0 * cxx / hx**2 - 2.0 * cyy / hy**2,
        (1, 1): cxy / (4 * hx * hy), (-1, -1): cxy / (4 * hx * hy),
        (1, -1): -cxy / (4 * hx * hy), (-1, 1): -cxy / (4 * hx * hy),
    }

    rows, cols, vals = [], [], []
    rhs = np.zeros(n_unk * m)
    ii, jj = np.nonzero(interior)
    base = unknown[node[ii, jj]]
    for (di, dj), W in offsets.items():
        ni, nj = ii + di, jj + dj
        neigh_unknown = interior[ni, nj]
        tgt = unknown[node[ni, nj]]
        # sign flip makes the operator positive definite for CG
        for a in range(m):
            for b in range(m):
                w = -W[a, b]
                if w == 0.0:
                    continue
                sel = neigh_unknown
                rows.append(base[sel] * m + a)
                cols.append(tgt[sel] * m + b)
                vals.append(np.full(int(sel.sum()), w))
                selb = ~neigh_unknown
                if np.any(selb):
                    np.add.at(rhs, base[selb] * m + a,
                              -w * gvals[ni[selb], nj[selb], b])
    K = sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_unk * m, n_unk * m)).tocsr()
    x0 = np.zeros(n_unk * m)
    x, info = cg(K, rhs, x0=x0, rtol=FD_RTOL, atol=0.0, maxiter=20 * n_unk * m)
    if info != 0:
        raise OracleError(f"conjugate gradients did not converge (info={info})")
    res = float(np.linalg.norm(K @ x - rhs)) / max(float(np.linalg.norm(rhs)), 1e-300)
    if res > 100 * FD_RTOL:
        raise OracleError(f"grid solve residual too large: {res:.3e}")
    values = gvals.copy()
    values[interior] = x.reshape(n_unk, m)
    return GridSolution(xs=xs, ys=ys, values=values)


def brute_force_seminorm(f, region: LocalRegion, gamma: float,
                         grid: int = 70) -> float:
    """Exhaustive pairwise Holder quotient over a dense grid in the region.

    Reference for the sampled estimator: the sampled value must reach at
    least 80% of this on calibration cases.  Refuses grids beyond
    ``DENSE_MAX_POINTS`` points.
    """
    geom = region.geom
    zc = float(region.center_tangential[0]) if geom.dim == 2 else None
    if geom.dim != 2:
        raise OracleError("dense enumeration implemented for n = 2")
    s = region.radius
    xs = np.linspace(zc - s, zc + s, grid)
    xs = xs[np.abs(xs) <= 1.0]
    bot = geom.bottom(xs[:, None])
    top = geom.top(xs[:, None])
    cols = []
    for x, b, t in zip(xs, bot, top):
        yy = np.linspace(b, t, grid)[1:-1]
        cols.append(np.stack([np.full(yy.size, x), yy], axis=1))
    P = np.concatenate(cols)
    P = P[region.contains(P)]
    if P.shape[0] > DENSE_MAX_POINTS:
        raise OracleError(f"dense grid of {P.shape[0]} points exceeds {DENSE_MAX_POINTS}")
    if P.shape[0] < 2:
        return 0.0
    vals = np.asarray(f(P), dtype=float).reshape(P.shape[0], -1)
    best = 0.0
    block = 512
    for start in range(0, P.shape[0], block):
        Pa = P[start:start + block]
        Va = vals[start:start + block]
        d = np.linalg.norm(Pa[:, None, :] - P[None, :, :], axis=2)
        dv = np.linalg.norm(Va[:, None, :] - vals[None, :, :], axis=2)
        mask = d > 0
        if np.any(mask):
            best = max(best, float(np.max(dv[mask] / d[mask] ** gamma)))
    return best
