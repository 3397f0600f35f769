"""Independent references: exact solutions, a finite-difference twin, brute force.

Everything here avoids the finite-element code paths on purpose: the grid
solver discretizes the strong form with difference stencils, lays them out
in its own band and solves it directly; it shares with the element solver
only the LAPACK binding (``_lapack``), which the tests check bit for bit
against scipy's.  The seminorm reference enumerates every pair
``i < j`` of a dense grid, in row blocks of at most ``DENSE_BLOCK_PAIRS``
pairs, so its memory does not grow with the grid (about 1.2 MB of
temporaries per block at ``DENSE_MAX_POINTS`` points, by ``tracemalloc``).
Exact solutions live on simplified (flat) geometry; the genuinely curved
claims are checked through scaling laws, not exact formulas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._lapack import dpbtrf, dpbtrs
from .coefficients import CoefficientSet
from .geometry import GapGeometry, LocalRegion
from .auxiliary import BoundaryData


class OracleError(RuntimeError):
    """Raised when an oracle is used outside its domain of validity."""


# the grid twin's residual gate: its direct solve must reach a relative
# residual of 100 FD_RTOL on the stencil
FD_RTOL = 1e-12
# largest dense grid the exhaustive seminorm enumerates
DENSE_MAX_POINTS = 10_000
# pairs one row block of the exhaustive seminorm compares (bounds its memory)
DENSE_BLOCK_PAIRS = 1 << 15


@dataclass(frozen=True)
class AffineCase:
    """Flat-rectangle scalar case with the exact affine solution.

    With unit data on the top edge and zero on the bottom, the solution is
    ``(x_2 + epsilon/2) / epsilon``; its gradient is vertical with magnitude
    ``1/epsilon`` everywhere.
    """

    epsilon: float

    def solution(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return ((X[:, 1] + 0.5 * self.epsilon) / self.epsilon)[:, None]

    def geometry(self) -> GapGeometry:
        return GapGeometry(self.epsilon, 0.5, 0.0, 0.0)

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
    ``boundary``.  Unknowns run column by column (m per grid node), so the
    symmetric positive definite stencil operator lies within half-bandwidth
    ``ny m + m - 1``; its lower band is factored by banded Cholesky
    (``dpbtrf``) and solved (``dpbtrs``).  The stencil, its band layout and
    the residual share no code with the element assembly.  The solve must
    reach a relative residual of ``100 FD_RTOL`` on the stencil, else
    :class:`OracleError`.
    """
    if not cs.is_zero_lower_order():
        raise OracleError("finite-difference reference requires B = C = D = 0")
    if callable(cs.A):
        raise OracleError("finite-difference reference supports constant coefficients only")
    m = cs.m
    A0 = cs.eval_A_many(np.zeros((1, 2)))[0]            # (2, 2, m, m)
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
        # sign flip makes the operator positive definite for Cholesky
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
    rows, cols, vals = (np.concatenate(a) for a in (rows, cols, vals))
    # unknowns run column by column, so every coupling lies within
    # kd = ny m + m - 1 of the diagonal: the lower band, at [i - j, j]
    n, kd = n_unk * m, int(np.max(rows - cols))
    lower = rows >= cols
    ab = np.zeros((kd + 1) * n)
    ab[rows[lower] - cols[lower] + (kd + 1) * cols[lower]] = vals[lower]
    cb, info = dpbtrf(ab.reshape(kd + 1, n, order="F"), lower=1, overwrite_ab=1)
    if info != 0:
        raise OracleError(f"grid operator is not positive definite (dpbtrf info={info})")
    x = dpbtrs(cb, rhs, lower=1)[0]
    res = (float(np.linalg.norm(np.bincount(rows, vals * x[cols], n) - rhs))
           / max(float(np.linalg.norm(rhs)), 1e-300))
    if not res <= 100 * FD_RTOL:
        raise OracleError(f"grid solve residual too large: {res:.3e}")
    values = gvals.copy()
    values[interior] = x.reshape(n_unk, m)
    return GridSolution(xs=xs, ys=ys, values=values)


def brute_force_seminorm(f, region: LocalRegion, gamma: float,
                         grid: int = 70) -> float:
    """Exhaustive pairwise Holder quotient over a dense grid in the region.

    Reference for the sampled estimator: the sampled value must reach at
    least 80% of this on calibration cases.  ``f`` is evaluated once, on all
    grid points; then every pair ``i < j`` of distinct points is compared,
    ``DENSE_BLOCK_PAIRS`` pairs at a time, which holds the temporaries to
    about 1.2 MB per block at ``DENSE_MAX_POINTS`` points (measured with
    ``tracemalloc``, 4 value columns).  Refuses grids beyond
    ``DENSE_MAX_POINTS`` points.
    """
    geom = region.geom
    zc, s = float(region.center[0]), region.radius
    xs = np.linspace(zc - s, zc + s, grid)
    bot, top = geom.bottom(xs[:, None]), geom.top(xs[:, None])
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
    return _max_holder_quotient(P, vals, gamma)


def _row_blocks(n: int):
    """Row blocks ``[a, b)`` of the pairs ``i < j`` of ``n`` points.

    Block ``[a, b)`` is compared with the columns ``a, ..., n - 1``, so it
    spans at most ``DENSE_BLOCK_PAIRS`` pairs (at least one row); later
    blocks take more rows as fewer columns remain.
    """
    a = 0
    while a < n - 1:
        b = min(n - 1, a + max(1, DENSE_BLOCK_PAIRS // (n - a)))
        yield a, b
        a = b


def _sq_dist(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """(len(A), len(B)) squared Euclidean distances, one column at a time."""
    out = np.square(np.subtract.outer(A[:, 0], B[:, 0]))
    for k in range(1, A.shape[1]):
        diff = np.subtract.outer(A[:, k], B[:, k])
        out += np.square(diff, out=diff)
    return out


def _max_holder_quotient(P: np.ndarray, vals: np.ndarray, gamma: float) -> float:
    """``max |vals_i - vals_j| / |P_i - P_j|^gamma`` over pairs with ``P_i != P_j``.

    Each row block is compared with itself and every later row, so every
    pair ``i < j`` is visited, and only the block's own square holds pairs
    ``j <= i`` as well; that cannot change a maximum of a symmetric
    quotient.  The squared quotient ``|dv|^2 / (|dx|^2)^gamma`` is maximized
    and rooted once.
    """
    best = 0.0
    for a, b in _row_blocks(P.shape[0]):
        q = _sq_dist(P[a:b], P[a:])
        np.power(q, gamma, out=q)       # zero exactly where the points coincide
        np.divide(_sq_dist(vals[a:b], vals[a:]), q, out=q, where=q > 0)
        best = max(best, float(q.max()))
    return float(np.sqrt(best))
