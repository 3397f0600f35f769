"""P1 finite elements for the elliptic system on the layered mesh.

The weak form assembled here pairs trial and test gradients through the
leading field A, adds the B term inside the divergence, and subtracts the
first- and zeroth-order C and D terms (they enter the weak form with a
minus sign).  Optional volume sources are a vector field H paired with the
test function and a matrix field F paired with the test gradient, so a
manufactured solution ``u*`` is reproduced by setting ``F = A grad(u*)``
(plus ``B u*``) and ``H = -(C grad(u*) + D u*)`` with ``u*`` as boundary
data.

Unknowns are ordered vertex-major: dof(vertex v, component i) = v*m + i.
The layered mesh numbers its vertices station by station, so every coupling
of two free dofs lies within half-bandwidth ``kd = L*m + m - 1`` (L layers,
m components) of the diagonal, without reordering.  That band is the only
operator a solve uses; its free dofs must fill a grid rectangle.  It is
filled from ``mesh.CELL``: each vertex couples to the vertices at the
(station, layer) offsets between corners of a cell's triangles, and the
element matrices, stored element-last and viewed per cell, sum each offset's
blocks by window slices into one vertex-grid array, written into LAPACK's band
storage (LAPACK Users' Guide, SIAM 1999) through strided views; at most one
offset and its mirror are held beside the band.  The Dirichlet rows and
columns enter through an element-by-element product.  Symmetric operators
(every CLI system) take banded Cholesky, ``dpbtrf`` and ``dpbtrs`` from
``_lapack``: the OpenBLAS of the scipy wheel, called through ``ctypes`` with
one thread, so no command imports scipy (scipy's own wrappers where no such
library is found).  Nonsymmetric operators (nonzero B or C) and operators that
are not positive definite (a large D) take scipy's banded LU, ``dgbtrf`` and
``dgbtrs``, imported only then.  ``scipy.sparse`` builds only ``K``.
"""

from __future__ import annotations

from dataclasses import dataclass
import itertools
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from ._lapack import dpbtrf, dpbtrs
from .auxiliary import BoundaryData, field_values
from .coefficients import CoefficientSet, evaluate_field
from .mesh import CELL, Mesh, TAG_BOTTOM, TAG_INTERIOR, TAG_TOP, p1_gradients

if TYPE_CHECKING:
    from scipy import sparse


class SolverError(RuntimeError):
    """Raised when assembly or the linear solve violates its contract."""


# edge-midpoint rule, exact for quadratics: the edges (a, b) whose midpoints are
# the points, and the values of the three nodal functions there
_EDGES = ((0, 1), (1, 2), (2, 0))
_BARY = np.array([[0.5 * (a in edge) for a in range(3)] for edge in _EDGES])
_WEIGHT = 1 / 3

# relative residual a solve must reach, after at most one refinement step
SOLVE_RTOL = 1e-10
# max |K_d - K_{-d}^T| over the grid offsets d, relative to the largest entry of
# the diagonal offset's blocks, up to which the operator counts as symmetric
SYMMETRY_RTOL = 1e-12
# elements assembled at a time: a block's terms W and R (BLOCK (3m)^2 entries,
# 0.6 MB each for m = 2) stay near L2 size, in one scratch each per call.  Over
# the assembly of whole sweep and energy-scaling runs, at 12 and 48 layers,
# 1024 and 2048 tie within the runs' spread and 512 is 10-13% slower
BLOCK = 2048
# largest band plus element matrices (band_bytes) of a planned mesh: the sweep
# at mesh.layers = 48 builds stations levels up to a 15 MiB band and 6 MiB of
# element matrices and a layers level of 28 + 5 MiB, at 192 layers 246 + 23 and
# 446 + 21 MiB; at 12 layers and mesh.dxmax = 1e-4 the elements (132 MiB)
# outweigh the band (87 MiB)
MAX_BAND_BYTES = 2**30


def _offset_pairs() -> dict:
    """The local pairs (triangle, a, b, corner of a) of each grid offset d =
    corner b - corner a of a ``CELL`` triangle, in ``CELL``'s order."""
    pairs = {}
    for tau, corners in enumerate(CELL):
        for (a, ca), (b, cb) in itertools.product(enumerate(corners), repeat=2):
            pairs.setdefault((cb[0] - ca[0], cb[1] - ca[1]), []).append((tau, a, b, ca))
    return pairs


_PAIRS = _offset_pairs()
# the offsets on or below the diagonal (p + d precedes p), (0, 0) first: it sets the scale
_LOWER = sorted((d for d in _PAIRS if d <= (0, 0)), reverse=True)


def _half_bandwidth(rows: int, m: int) -> int:
    """kd of the operator on a grid rectangle ``rows`` vertices tall."""
    return max(abs(ds * rows + dj) for ds, dj in _PAIRS) * m + m - 1


def band_bytes(stations: int, layers: int, m: int) -> tuple[int, int]:
    """Bytes of the band, n (kd + 1) 8 with n = (S - 2)(L - 1) m free dofs (every
    boundary vertex is fixed), and of the element matrices held while it is
    factored, (3m)^2 8 per triangle, on S stations of L layers."""
    return ((stations - 2) * (layers - 1) * m * (_half_bandwidth(layers - 1, m) + 1) * 8,
            len(CELL) * (stations - 1) * layers * (3 * m) ** 2 * 8)


@dataclass
class RightHandSide:
    """Volume sources: ``H`` (k, 2) -> (k, m) and ``F`` (k, 2) -> (k, m, 2)."""

    H: Optional[Callable[[np.ndarray], np.ndarray]] = None
    F: Optional[Callable[[np.ndarray], np.ndarray]] = None


@dataclass
class BoundaryAssignment:
    """Dirichlet values per vertex with the mask of constrained vertices."""

    values: np.ndarray          # (N, m)
    fixed: np.ndarray           # (N,) bool

    def dof_mask(self) -> np.ndarray:
        m = self.values.shape[1]
        return np.repeat(self.fixed, m)


def _blocks(count: int) -> list[slice]:
    """``range(count)`` as consecutive slices of at most ``BLOCK`` elements."""
    return [slice(s, min(s + BLOCK, count)) for s in range(0, count, BLOCK)]


def _offset(E: np.ndarray, rect: tuple, d: tuple) -> np.ndarray:
    """The operator's blocks ``K[(p, x), (p + d, y)]`` as (m, m, ., .) over the
    grid vertices p with p and p + d in ``rect`` (stations s0:s1, layers
    j0:j1), summed in the pairs' order (``_PAIRS``) from the element matrices
    viewed per cell, ``E`` (3, m, 3, m, S - 1, L, len(CELL)).
    """
    S1, L = E.shape[4:6]
    s0, s1, j0, j1 = rect
    ps0, ps1 = s0 + max(0, -d[0]), s1 - max(0, d[0])
    pj0, pj1 = j0 + max(0, -d[1]), j1 - max(0, d[1])
    K = np.zeros(E.shape[1:2] + E.shape[3:4] + (ps1 - ps0, pj1 - pj0))
    for tau, a, b, (cs, cj) in _PAIRS[d]:
        # vertex a of cell (s, j) is (s + cs, j + cj); keep the cells that exist
        a0, a1 = max(ps0, cs), min(ps1, S1 + cs)
        b0, b1 = max(pj0, cj), min(pj1, L + cj)
        K[:, :, a0 - ps0:a1 - ps0, b0 - pj0:b1 - pj0] += E[a, :, b, :, a0 - cs:a1 - cs,
                                                           b0 - cj:b1 - cj, tau]
    return K


class AssembledSystem:
    """Element matrices ``E`` (3m, 3m, T), their dofs ``dofs`` (3m, T) and the load;
    factorizations are cached by constraint pattern."""

    def __init__(self, mesh: Mesh, cs: CoefficientSet, E: np.ndarray, dofs: np.ndarray,
                 load: np.ndarray):
        self.mesh, self.cs, self.E, self.dofs, self.load = mesh, cs, E, dofs, load
        self._lu_cache = {}

    @cached_property
    def K(self) -> sparse.csr_matrix:
        """The full unconstrained operator as CSR, for reference; no solve reads it."""
        from scipy import sparse        # kept off the import path of every command

        E, dofs = self.E, self.dofs
        ij = (np.broadcast_to(dofs[:, None], E.shape).ravel(),
              np.broadcast_to(dofs[None], E.shape).ravel())
        return sparse.coo_matrix((E.ravel(), ij), shape=(self.load.size,) * 2).tocsr()

    def _apply(self, u: np.ndarray, elements=slice(None)) -> np.ndarray:
        """``K @ u``, element by element, over ``elements`` (default all)."""
        dofs = self.dofs[:, elements]
        Eu = np.einsum("act,ct->at", self.E[:, :, elements], u[dofs])
        return np.bincount(dofs.ravel(), Eu.ravel(), u.size)

    def _factor(self, dof_fixed: np.ndarray):
        """Solve function, free mask and the elements that touch a fixed dof."""
        key = dof_fixed.tobytes()
        if key not in self._lu_cache:
            self._lu_cache[key] = (self._band_solver(~dof_fixed), ~dof_fixed,
                                   np.flatnonzero(dof_fixed[self.dofs].any(axis=0)))
        return self._lu_cache[key]

    def _band_solver(self, free: np.ndarray):
        """Solve function of K_ff, factored in LAPACK's column-major band storage.

        The free dofs must fill a rectangle of the mesh's (station, layer) grid,
        every component of every vertex in it, or a :class:`SolverError` is
        raised; numbered as the mesh numbers them, they span a band of
        :func:`_half_bandwidth`.  Entry (i, j) goes to ``ab[diag + i - j, j]``.
        The operator is read one grid offset at a time (:func:`_offset`), and
        each offset's m x m blocks are written into their band rows through
        strided views of ``ab``.  Cholesky writes the offsets on or below the
        diagonal and tests symmetry on the operator: each offset against its
        mirror, transposed, relative to the largest diagonal-block entry.  LU
        writes every offset.  One offset pair is alive beside the band.
        """
        mesh, m = self.mesh, self.cs.m
        S, L = mesh.stations.size, mesh.layers
        mesh.check_layered()
        grid = free.reshape(S, L + 1, m)
        s, j = (np.flatnonzero(grid.any(axis=(2, k))) for k in (1, 0))
        if s.size == 0:
            raise SolverError("no free dof to solve for")
        rect = (int(s[0]), int(s[-1]) + 1, int(j[0]), int(j[-1]) + 1)
        if not grid[rect[0]:rect[1], rect[2]:rect[3]].all():
            raise SolverError(f"the free dofs are not a rectangle of the grid: stations "
                              f"{rect[0]}:{rect[1]}, layers {rect[2]}:{rect[3]} hold a fixed dof")
        ns, nj = rect[1] - rect[0], rect[3] - rect[2]
        n, kd = ns * nj * m, _half_bandwidth(nj, m)
        E = self.E.reshape(3, m, 3, m, S - 1, L, len(CELL))  # E[a, i, b, j, cell s, cell j, tau]

        def band(rows, diag, lower):
            """The band, or None when ``lower`` and the operator is not symmetric."""
            ab = np.zeros((ns, nj, m, rows))             # column-major (rows, n)
            for d in _LOWER if lower else _PAIRS:
                K = _offset(E, rect, d)
                if lower:        # K_{-d} - K_d^T, formed in the mirror's array
                    if d == (0, 0):
                        scale = max(float(K.max()), -float(K.min()))
                        asym = K - K.transpose(1, 0, 2, 3)
                    else:
                        asym = _offset(E, rect, (-d[0], -d[1]))
                        asym -= K.transpose(1, 0, 2, 3)
                    if max(float(asym.max()), -float(asym.min())) > SYMMETRY_RTOL * scale:
                        return None
                    del asym
                # K[x, y] couples row dof (p, x) to column dof (p + d, y): band row
                # diag + x - y - (d_s nj + d_j) m of column (p + d, y)
                r0 = diag - (d[0] * nj + d[1]) * m
                cols = ab[max(d[0], 0):ns + min(d[0], 0), max(d[1], 0):nj + min(d[1], 0)]
                for y in range(m):
                    lo, hi = max(0, y - r0), min(m, rows + y - r0)
                    cols[:, :, y, r0 - y + lo:r0 - y + hi] = K[lo:hi, y].transpose(1, 2, 0)
            return ab.reshape(n, rows).T

        ab = band(kd + 1, 0, True)
        solve = None
        if ab is not None:
            cb, info = dpbtrf(ab, lower=1, overwrite_ab=1)
            if info == 0:
                solve = lambda b: dpbtrs(cb, b, lower=1)[0]
            # info > 0: not positive definite, LU below
        if solve is None:
            from scipy.linalg.lapack import dgbtrf, dgbtrs    # off every command's path
            lu, piv, info = dgbtrf(band(3 * kd + 1, 2 * kd, False), kd, kd, overwrite_ab=True)
            if info > 0:
                raise SolverError(f"singular operator: zero pivot {info} in banded LU")
            solve = lambda b: dgbtrs(lu, kd, kd, b, piv)[0]
        return solve


def assemble(mesh: Mesh, cs: CoefficientSet,
             rhs: Optional[RightHandSide] = None) -> AssembledSystem:
    """Assemble the system matrix and load vector.

    An array (constant) leading field A is integrated by the centroid rule: P1
    gradients are constant per triangle, so that rule is exact for it.  A
    rule (variable) A, the lower-order fields B, C, D and the volume sources
    are evaluated at the three edge midpoints of each triangle, a rule exact for
    quadratics such as the P1 mass term of a constant D.  A rule is called once
    per midpoint and block of ``BLOCK`` triangles.  A block's terms are summed
    element-last in ``R[i, j, a, b, t]`` (test dof (vertex a, component i), trial
    dof (b, j)); a constant A is one product with ``W = area G[a, p] G[b, q]``.
    """
    m, T = cs.m, mesh.num_triangles
    E = np.empty((3, m, 3, m, T))       # E[a, i, b, j, t], each block written once
    fe = None if rhs is None else np.zeros((3, m, T))    # fe[a, i, t]
    variable = callable(cs.A)
    lower_order = not cs.is_zero_lower_order()
    # a constant A with no other terms needs no edge-midpoint points
    rule = _EDGES if variable or lower_order or rhs is not None else ()
    # a constant A is evaluated once, at the first centroid, as rows (i, j) by columns (p, q)
    A_1 = None if variable else cs.eval_A_many(
        mesh.vertices[mesh.triangles[:1]].mean(axis=1))[0].reshape(4, m * m).T
    # W and R of every block in one scratch each, so a call maps and faults them once
    scratch_W, scratch_R = np.empty(36 * min(BLOCK, T)), np.empty(9 * m * m * min(BLOCK, T))
    for b in _blocks(T):
        x, y = mesh.vertex_rows(b)
        G, det = p1_gradients(x, y)                    # G[p, a, t]
        area = 0.5 * np.abs(det)
        if np.any(area <= 0) or not np.all(np.isfinite(G)):
            raise SolverError("singular element geometry")
        wa = _WEIGHT * area
        t = area.size
        W = np.multiply(((wa if variable else area) * G)[:, None, :, None], G[None, :, None],
                        out=scratch_W[:36 * t].reshape(2, 2, 3, 3, t))
        R = scratch_R[:9 * m * m * t].reshape(m * m, 3, 3, t)
        mids = [np.stack([0.5 * (x[k] + x[l]), 0.5 * (y[k] + y[l])], axis=1) for k, l in rule]
        if variable:       # a rule A, summed over the midpoints, times wa G[a, p] G[b, q]
            A = sum(cs.eval_A_many(xq) for xq in mids).reshape(-1, 4, m * m)
            np.einsum("tkx,kyt->xyt", A, W.reshape(4, 9, t), out=R.reshape(m * m, 9, t))
        else:
            np.matmul(A_1, W.reshape(4, 9 * t), out=R.reshape(m * m, 9 * t))
        for xq, bq in zip(mids, _BARY):
            if lower_order:
                B_q, C_q = ((wa * f(xq).reshape(-1, 2, m * m).T).transpose(1, 0, 2)
                            for f in (cs.eval_B_many, cs.eval_C_many))   # [p, (i, j), t]
                D_q = wa * cs.eval_D_many(xq).reshape(-1, m * m).T
                R += np.einsum("pxt,pat->xat", B_q, G)[:, :, None] * bq[:, None]
                R -= bq[:, None, None] * np.einsum("pxt,pbt->xbt", C_q, G)[:, None]
                R -= np.outer(bq, bq)[:, :, None] * D_q[:, None, None]
            if rhs is not None:                        # a source left None is zero
                H_q = evaluate_field("H", rhs.H, xq, (m,))
                F_q = evaluate_field("F", rhs.F, xq, (m, 2))
                fe[..., b] += bq[:, None, None] * (wa * H_q.T)
                fe[..., b] += np.einsum("tip,pat->ait", wa[:, None, None] * F_q, G)
        E[..., b] = R.reshape(m, m, 3, 3, -1).transpose(2, 0, 3, 1, 4)

    dofs = (mesh.triangles.T[:, None] * m + np.arange(m)[:, None]).reshape(3 * m, T)
    load = (np.zeros(mesh.num_vertices * m) if rhs is None
            else np.bincount(dofs.ravel(), fe.ravel(), mesh.num_vertices * m))
    return AssembledSystem(mesh, cs, E.reshape(3 * m, 3 * m, T), dofs, load)


@dataclass
class DiscreteSolution:
    """Nodal vector field; its gradient is constant on each triangle."""

    mesh: Mesh
    values: np.ndarray          # (N, m)

    def gradients(self, triangles=slice(None)) -> np.ndarray:
        """Gradients of the linear interpolant on ``triangles`` (default all),
        (t, m, 2); only those triangles' gradients are formed.

        The nodal-function gradients are made C-contiguous (t, 3, 2) first:
        the einsum of a transposed view rounds differently, and every reader
        gets the same bits for a triangle whatever else it selects.
        """
        mesh = self.mesh
        G = np.ascontiguousarray(p1_gradients(*mesh.vertex_rows(triangles))[0].transpose(2, 1, 0))
        return np.einsum("tam,tad->tmd", self.values[mesh.triangles[triangles]], G)


def dirichlet_values(mesh: Mesh, data: BoundaryData) -> BoundaryAssignment:
    """Dirichlet assignment from boundary data on every boundary vertex.

    Top vertices take phi, bottom vertices psi (both read only x1), and the
    lateral segments the data extension across the gap (the estimates under
    test are interior).  A single-component problem passes ``data.only(ell)``.
    """
    values = np.zeros((mesh.num_vertices, data.m))
    tags = mesh.vertex_tags
    top = tags == TAG_TOP
    bot = tags == TAG_BOTTOM
    fixed = tags != TAG_INTERIOR
    lat = fixed & ~top & ~bot
    values[top] = data.phi(mesh.vertices[top, 0])
    values[bot] = data.psi(mesh.vertices[bot, 0])
    if np.any(lat):
        values[lat] = field_values(mesh.geom, data, mesh.vertices[lat])
    return BoundaryAssignment(values=values, fixed=fixed)


def solve_dirichlet(system: AssembledSystem, bc: BoundaryAssignment) -> DiscreteSolution:
    """Direct banded solve with the Dirichlet constraints eliminated.

    The lift ``K_fc u_c`` sums the elements with a fixed dof (the others add
    exact zeros), the residual all elements.  One step of iterative
    refinement is applied if needed; if the relative residual still exceeds
    ``SOLVE_RTOL``, or is NaN, the solve fails loudly.
    """
    m = system.cs.m
    if bc.values.shape != (system.mesh.num_vertices, m):
        raise SolverError("boundary assignment shape mismatch")
    dof_fixed = bc.dof_mask()
    solve, free, boundary = system._factor(dof_fixed)
    full = np.where(dof_fixed, bc.values.ravel(), 0.0)
    rhs = system.load[free] - system._apply(full, boundary)[free]
    full[free] = solve(rhs)
    scale = max(float(np.linalg.norm(rhs)), 1e-300)
    for refined in (False, True):
        r = system.load[free] - system._apply(full)[free]      # rhs - K_ff x
        res = float(np.linalg.norm(r)) / scale
        if res <= SOLVE_RTOL:
            break
        if refined:
            raise SolverError(f"linear solve did not converge: relative residual {res:.3e}")
        full[free] += solve(r)
    return DiscreteSolution(mesh=system.mesh, values=full.reshape(-1, m))


def gradient_at(sol: DiscreteSolution, x) -> np.ndarray:
    """Gradients in the lowest-index triangles containing ``x`` (:meth:`Mesh.locate`).

    ``x`` of shape (2,) gives the matrix (m, 2), shape (k, 2) gives (k, m, 2).
    Only the located triangles' gradients are formed.
    """
    g = sol.gradients(np.atleast_1d(sol.mesh.locate(x)))
    return g if np.ndim(x) == 2 else g[0]


def value_at(sol: DiscreteSolution, x) -> np.ndarray:
    """Values of the linear interpolant in the triangles :func:`gradient_at` reads.

    ``x`` of shape (2,) gives (m,), shape (k, 2) gives (k, m).  Only the
    located triangles' gradients are formed.
    """
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    t = sol.mesh.locate(pts)
    v0 = sol.mesh.triangles[t, 0]
    v = sol.values[v0] + np.einsum("tmd,td->tm", sol.gradients(t), pts - sol.mesh.vertices[v0])
    return v if np.ndim(x) == 2 else v[0]


def grid_distance(sol: DiscreteSolution, grid) -> float:
    """Sup distance between ``sol`` and a tensor-grid field at interior grid nodes.

    ``grid`` carries node coordinates ``xs``, ``ys`` and values (nx+1, ny+1, m),
    as the finite-difference reference returns them.  Every second column in
    the inner 80% of the x-range and every interior row are compared.
    """
    cols = np.arange(1, grid.xs.size - 1, 2)
    cols = cols[np.abs(grid.xs[cols]) <= 0.8 * grid.xs[-1]]
    rows = np.arange(1, grid.ys.size - 1)
    ci, rj = (a.ravel() for a in np.meshgrid(cols, rows, indexing="ij"))
    diff = value_at(sol, np.stack([grid.xs[ci], grid.ys[rj]], axis=1)) - grid.values[ci, rj]
    return float(np.max(np.abs(diff)))


def l2_norm(sol: DiscreteSolution) -> float:
    """Centroid-rule L2 norm of the nodal field over the whole mesh; the corner
    mean is summed corner by corner, as :meth:`Mesh.centroids` does."""
    c0, c1, c2 = sol.values[sol.mesh.triangles.T]
    c_vals = (c0 + c1 + c2) / 3
    return float(np.sqrt(np.sum(sol.mesh.areas() * np.sum(c_vals**2, axis=1))))
