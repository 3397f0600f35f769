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
The layered mesh numbers its vertices station by station, so after the
Dirichlet rows are removed every nonzero of the free block K_ff lies within
half-bandwidth ``kd = L*m + m - 1`` (L layers, m components) of the
diagonal, without reordering.  A K_ff that is symmetric to roundoff is
factored by LAPACK's banded Cholesky (``dpbtrf``/``dpbtrs``) on that band:
on the 96-layer Lame gate mesh (41.6k free dofs, kd = 193) building and
factoring the band takes 0.06 s against 0.14 s for SuperLU with a
minimum-degree ordering (one BLAS thread, 2-vCPU machine).
Operators that are not symmetric (nonzero B or C terms) or not positive
definite (a large D) go to SuperLU instead; the matrix decides, there is no
option.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy import sparse
from scipy.linalg import LinAlgError, cho_solve_banded, cholesky_banded
from scipy.sparse.linalg import splu

from .auxiliary import BoundaryData, interpolant_values
from .coefficients import CoefficientSet
from .mesh import Mesh, TAG_BOTTOM, TAG_INTERIOR, TAG_TOP


class SolverError(RuntimeError):
    """Raised when assembly or the linear solve violates its contract."""


# edge-midpoint rule in barycentric coordinates, exact for quadratics
_BARY = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
_WEIGHT = 1 / 3

# relative residual a solve must reach, after at most one refinement step
SOLVE_RTOL = 1e-10
# |K_ff - K_ff^T| / |K_ff| (max norms) up to which K_ff counts as symmetric
SYMMETRY_RTOL = 1e-12


@dataclass
class RightHandSide:
    """Volume sources: ``H`` (k, n) -> (k, m) and ``F`` (k, n) -> (k, m, n)."""

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


class AssembledSystem:
    """Sparse operator and load for one mesh/coefficient pair.

    Holds the full (unconstrained) matrix; Dirichlet elimination happens per
    solve, with the factorization cached by constraint pattern so repeated
    solves with different data reuse it.
    """

    def __init__(self, mesh: Mesh, cs: CoefficientSet, K: sparse.csr_matrix,
                 load: np.ndarray):
        self.mesh = mesh
        self.cs = cs
        self.K = K
        self.load = load
        self._lu_cache = {}

    def _factor(self, dof_fixed: np.ndarray):
        key = dof_fixed.tobytes()
        hit = self._lu_cache.get(key)
        if hit is not None:
            return hit
        free = ~dof_fixed
        K_f = self.K[free]
        K_ff = K_f[:, free]
        K_fc = K_f[:, dof_fixed]
        # SPD operators take the band; the others LU with minimum degree on
        # the pattern of K_ff + K_ff^T, ~40% less fill than COLAMD here
        solve = _band_cholesky(K_ff) or splu(K_ff.tocsc(), permc_spec="MMD_AT_PLUS_A").solve
        entry = (solve, K_ff, K_fc, free)
        self._lu_cache[key] = entry
        return entry


def _band_cholesky(K_ff: sparse.csr_matrix):
    """Banded-Cholesky solve function for ``K_ff``, or None if it is not SPD.

    The lower band is stored in LAPACK's column-major layout,
    ``ab[i - j, j] = K[i, j]`` for ``0 <= i - j <= kd``.
    """
    asym = np.max(np.abs((K_ff - K_ff.T).data), initial=0.0)
    if asym > SYMMETRY_RTOL * np.max(np.abs(K_ff.data), initial=0.0):
        return None
    low = sparse.tril(K_ff, format="coo")
    kd = int(np.max(low.row - low.col, initial=0))
    ab = np.zeros((kd + 1, K_ff.shape[0]), order="F")
    ab[low.row - low.col, low.col] = low.data
    try:
        cb = cholesky_banded(ab, overwrite_ab=True, lower=True, check_finite=False)
    except LinAlgError:         # not positive definite
        return None
    return lambda b: cho_solve_banded((cb, True), b, check_finite=False)


def assemble(mesh: Mesh, cs: CoefficientSet,
             rhs: Optional[RightHandSide] = None) -> AssembledSystem:
    """Assemble the system matrix and load vector.

    A constant leading field A is integrated by the centroid rule: P1
    gradients are constant per triangle, so that rule is exact for it.  A
    variable A, the lower-order fields B, C, D and the volume sources are
    evaluated at the three edge midpoints of each triangle, a rule exact for
    quadratics such as the P1 mass term of a constant D.
    """
    if cs.n != 2:
        raise SolverError("the discrete solver is 2-D")
    m = cs.m
    T = mesh.num_triangles
    N = mesh.num_vertices
    G = mesh.basis_gradients()          # (T, 3, 2)
    areas = mesh.areas()
    if np.any(areas <= 0) or not np.all(np.isfinite(G)):
        raise SolverError("singular element geometry")
    pts = mesh.vertices[mesh.triangles]  # (T, 3, 2)

    E = np.zeros((T, 3, m, 3, m))
    fe = np.zeros((T, 3, m))
    lower_order = not cs.is_zero_lower_order()
    if cs.constant:
        A_c = cs.eval_A_many(mesh.centroids())         # (T, n, n, m, m)
        E += np.einsum("t,tpqij,tbq,tap->taibj", areas, A_c, G, G, optimize=True)
    wa = _WEIGHT * areas
    for bq in _BARY:
        xq = np.einsum("a,tad->td", bq, pts)
        if not cs.constant:
            A_q = cs.eval_A_many(xq)                   # (T, n, n, m, m)
            E += np.einsum("t,tpqij,tbq,tap->taibj", wa, A_q, G, G, optimize=True)
        if lower_order:
            B_q = cs.eval_B_many(xq)                   # (T, n, m, m)
            C_q = cs.eval_C_many(xq)
            D_q = cs.eval_D_many(xq)
            E += np.einsum("t,tpij,b,tap->taibj", wa, B_q, bq, G, optimize=True)
            E -= np.einsum("t,tqij,tbq,a->taibj", wa, C_q, G, bq, optimize=True)
            E -= np.einsum("t,tij,a,b->taibj", wa, D_q, bq, bq, optimize=True)
        if rhs is not None:
            if rhs.H is not None:
                H_q = np.asarray(rhs.H(xq), dtype=float).reshape(T, m)
                fe += np.einsum("t,ti,a->tai", wa, H_q, bq)
            if rhs.F is not None:
                F_q = np.asarray(rhs.F(xq), dtype=float).reshape(T, m, 2)
                fe += np.einsum("t,tip,tap->tai", wa, F_q, G)

    vm = mesh.triangles * m                             # (T, 3)
    comp = np.arange(m)
    dof_local = vm[:, :, None] + comp[None, None, :]    # (T, 3, m)
    rows = np.broadcast_to(dof_local[:, :, :, None, None], E.shape).ravel()
    cols = np.broadcast_to(dof_local[:, None, None, :, :], E.shape).ravel()
    K = sparse.coo_matrix((E.ravel(), (rows, cols)), shape=(N * m, N * m)).tocsr()
    load = np.zeros(N * m)
    np.add.at(load, dof_local.ravel(), fe.ravel())
    return AssembledSystem(mesh, cs, K, load)


@dataclass
class DiscreteSolution:
    """Nodal vector field with its elementwise-constant gradient."""

    mesh: Mesh
    values: np.ndarray          # (N, m)
    _grads: np.ndarray = field(default=None, repr=False)

    def gradients(self) -> np.ndarray:
        """Per-triangle gradient of the linear interpolant, (T, m, 2)."""
        if self._grads is None:
            G = self.mesh.basis_gradients()
            self._grads = np.einsum("tam,tad->tmd", self.values[self.mesh.triangles], G)
            self._grads.setflags(write=False)
        return self._grads

    @property
    def m(self) -> int:
        return self.values.shape[1]


def dirichlet_values(mesh: Mesh, data: BoundaryData,
                     component: Optional[int] = None) -> BoundaryAssignment:
    """Dirichlet assignment from boundary data on every boundary vertex.

    Top vertices take phi, bottom vertices psi, and the lateral segments the
    data extension across the gap (the estimates under test are interior).
    With ``component`` set, all other components of the data are zeroed
    (single-component problems).
    """
    values = np.zeros((mesh.num_vertices, data.m))
    tags = mesh.vertex_tags
    top = tags == TAG_TOP
    bot = tags == TAG_BOTTOM
    fixed = tags != TAG_INTERIOR
    lat = fixed & ~top & ~bot
    values[top] = np.asarray(data.phi(mesh.vertices[top]), dtype=float)
    values[bot] = np.asarray(data.psi(mesh.vertices[bot]), dtype=float)
    if np.any(lat):
        values[lat] = interpolant_values(mesh.geom, data, mesh.vertices[lat])
    if component is not None:
        keep = values[:, component].copy()
        values[:] = 0.0
        values[:, component] = keep
    return BoundaryAssignment(values=values, fixed=fixed)


def solve_dirichlet(system: AssembledSystem, bc: BoundaryAssignment) -> DiscreteSolution:
    """Direct sparse solve with the Dirichlet constraints eliminated.

    The residual is measured against the assembled K_ff.  One step of
    iterative refinement is applied if needed; if the relative residual
    still exceeds ``SOLVE_RTOL`` the solve fails loudly.
    """
    m = system.cs.m
    if bc.values.shape != (system.mesh.num_vertices, m):
        raise SolverError("boundary assignment shape mismatch")
    dof_fixed = bc.dof_mask()
    solve, K_ff, K_fc, free = system._factor(dof_fixed)
    g = bc.values.ravel()[dof_fixed]
    rhs = system.load[free] - K_fc @ g
    x = solve(rhs)
    scale = max(float(np.linalg.norm(rhs)), 1e-300)
    res = float(np.linalg.norm(K_ff @ x - rhs)) / scale
    if res > SOLVE_RTOL:
        x = x + solve(rhs - K_ff @ x)
        res = float(np.linalg.norm(K_ff @ x - rhs)) / scale
        if res > SOLVE_RTOL:
            raise SolverError(f"linear solve did not converge: relative residual {res:.3e}")
    full = np.empty(system.mesh.num_vertices * m)
    full[dof_fixed] = g
    full[~dof_fixed] = x
    return DiscreteSolution(mesh=system.mesh, values=full.reshape(-1, m))


def solve_component(system: AssembledSystem, data: BoundaryData,
                    ell: int) -> DiscreteSolution:
    """Solution with only component ``ell`` (0-based) of the data imposed."""
    if not (0 <= ell < data.m):
        raise SolverError(f"component {ell} out of range for m = {data.m}")
    return solve_dirichlet(system, dirichlet_values(system.mesh, data, component=ell))


def gradient_at(sol: DiscreteSolution, x) -> np.ndarray:
    """Gradients of the containing triangles (lowest index on ties).

    ``x`` of shape (2,) gives the matrix (m, 2), shape (k, 2) gives (k, m, 2).
    """
    return sol.gradients()[sol.mesh.locate(x)]


def value_at(sol: DiscreteSolution, x) -> np.ndarray:
    """Values of the linear interpolant in the triangles :func:`gradient_at` uses.

    ``x`` of shape (2,) gives (m,), shape (k, 2) gives (k, m).
    """
    x = np.asarray(x, dtype=float)
    t = sol.mesh.locate(x)
    v0 = sol.mesh.triangles[t, 0]
    d = x - sol.mesh.vertices[v0]
    return sol.values[v0] + np.einsum("...md,...d->...m", sol.gradients()[t], d)


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
    """Centroid-rule L2 norm of the nodal field over the whole mesh."""
    c_vals = sol.values[sol.mesh.triangles].mean(axis=1)
    return float(np.sqrt(np.sum(sol.mesh.areas() * np.sum(c_vals**2, axis=1))))
