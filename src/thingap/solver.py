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
operator a solve uses: element matrices are summed straight into LAPACK's
band storage (LAPACK Users' Guide, SIAM 1999) without the Dirichlet rows
and columns, which enter through an element-by-element product.  The band
is allocated once and the elements are added into it ``BLOCK`` at a time,
in element order, so the set-up holds no temporary the size of the element
matrices and every band entry sums its terms in element order.  Symmetric
element matrices (every CLI system) take banded Cholesky, ``dpbtrf`` and
``dpbtrs`` from ``_lapack``: the OpenBLAS bundled with the scipy wheel,
called through ``ctypes`` and loaded with one thread, so no command imports
scipy (scipy's own wrappers where no such library is found).  Nonsymmetric
element matrices (nonzero B or C) and operators that are not positive
definite (a large D) take banded LU, scipy's ``dgbtrf`` and ``dgbtrs``,
imported only when that happens.  The matrix decides.  ``scipy.sparse``
builds only the reference matrix ``K``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from ._lapack import dpbtrf, dpbtrs
from .auxiliary import BoundaryData, field_values
from .coefficients import CoefficientSet, evaluate_field
from .mesh import Mesh, TAG_BOTTOM, TAG_INTERIOR, TAG_TOP

if TYPE_CHECKING:
    from scipy import sparse


class SolverError(RuntimeError):
    """Raised when assembly or the linear solve violates its contract."""


# edge-midpoint rule in barycentric coordinates, exact for quadratics
_BARY = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
_WEIGHT = 1 / 3

# relative residual a solve must reach, after at most one refinement step
SOLVE_RTOL = 1e-10
# max |E - E^T| / max |E| up to which the element matrices count as symmetric
SYMMETRY_RTOL = 1e-12
# elements assembled and summed into the band at a time: a block's index, mask
# and contraction arrays (BLOCK (3m)^2 entries, 0.6 MB of int64 for m = 2)
# stay near L2 size
BLOCK = 2048
# largest band n (kd + 1) 8 bytes plus element matrices T (3m)^2 8 bytes a
# planned problem may need: the sweep at mesh.layers = 48 builds stations
# levels up to a 15 MiB band and 6 MiB of element matrices and a layers level
# of 28 + 5 MiB, at 192 layers 246 + 23 and 446 + 21 MiB; at 12 layers and
# mesh.dxmax = 1e-4 the elements (132 MiB) outweigh the band (87 MiB)
MAX_BAND_BYTES = 2**30


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


def _blocks(count: int) -> list[slice]:
    """``range(count)`` as consecutive slices of at most ``BLOCK`` elements."""
    return [slice(s, min(s + BLOCK, count)) for s in range(0, count, BLOCK)]


class AssembledSystem:
    """Element matrices ``E`` (T, 3m, 3m), their dofs ``dofs`` (T, 3m) and the
    load; factorizations are cached by constraint pattern for solves with other data."""

    def __init__(self, mesh: Mesh, cs: CoefficientSet, E: np.ndarray, dofs: np.ndarray,
                 load: np.ndarray):
        self.mesh, self.cs, self.E, self.dofs, self.load = mesh, cs, E, dofs, load
        self._lu_cache = {}

    @cached_property
    def K(self) -> sparse.csr_matrix:
        """The full unconstrained operator as CSR, for reference; no solve reads it."""
        from scipy import sparse        # kept off the import path of every command

        ij = (np.broadcast_to(self.dofs[:, :, None], self.E.shape).ravel(),
              np.broadcast_to(self.dofs[:, None, :], self.E.shape).ravel())
        return sparse.coo_matrix((self.E.ravel(), ij), shape=(self.load.size,) * 2).tocsr()

    def _apply(self, u: np.ndarray, elements=slice(None)) -> np.ndarray:
        """``K @ u``, element by element, over ``elements`` (default all)."""
        dofs = self.dofs[elements]
        Eu = np.einsum("tab,tb->ta", self.E[elements], u[dofs])
        return np.bincount(dofs.ravel(), Eu.ravel(), u.size)

    def _factor(self, dof_fixed: np.ndarray):
        """Solve function, free mask and the elements that touch a fixed dof."""
        key = dof_fixed.tobytes()
        if key not in self._lu_cache:
            self._lu_cache[key] = (self._band_solver(~dof_fixed), ~dof_fixed,
                                   np.flatnonzero(dof_fixed[self.dofs].any(axis=1)))
        return self._lu_cache[key]

    def _band_solver(self, free: np.ndarray):
        """Solve function of K_ff, factored in LAPACK's column-major band storage.

        Entry (i, j) goes to ``ab[diag + i - j, j]``, slot ``diag + i + (rows - 1) j``.
        The zeroed band is allocated once; the element matrices are added into
        it ``BLOCK`` elements at a time, in element order, with ``np.add.at``,
        so each slot sums its terms in the same order as one pass over all
        elements.  Entries in a fixed row or column, or above the diagonal for
        Cholesky, go to one slot past the end.  The half-bandwidth and the
        symmetry test read the elements in the same blocks.
        """
        n, E = int(free.sum()), self.E
        pos = np.where(free, np.cumsum(free) - 1, -1)    # free dofs keep their order
        blocks = _blocks(len(E))
        iu, ju = np.triu_indices(E.shape[1], 1)
        kd, asym, scale = 0, 0.0, 0.0
        for b in blocks:
            loc, Eb = pos[self.dofs[b]], E[b]
            kd = max(kd, int(np.max(loc.max(1) - np.where(loc >= 0, loc, n).min(1))))
            asym = np.maximum(asym, np.max(np.abs(Eb[:, iu, ju] - Eb[:, ju, iu])))
            scale = np.maximum(scale, np.max(np.abs(Eb)))

        def band(rows, diag, lower):
            ab = np.zeros(rows * n + 1)
            for b in blocks:
                loc = pos[self.dofs[b]]
                i, j = loc[:, :, None], loc[:, None, :]
                keep = (i >= j) & (j >= 0) if lower else (i >= 0) & (j >= 0)
                slot = np.where(keep, diag + i + (rows - 1) * j, rows * n)
                np.add.at(ab, slot.ravel(), E[b].ravel())
            return ab[:-1].reshape(rows, n, order="F")

        if asym <= SYMMETRY_RTOL * scale:
            cb, info = dpbtrf(band(kd + 1, 0, True), lower=1, overwrite_ab=1)
            if info == 0:
                return lambda b: dpbtrs(cb, b, lower=1)[0]
            # info > 0: not positive definite, LU below
        from scipy.linalg.lapack import dgbtrf, dgbtrs    # off every command's path
        lu, piv, info = dgbtrf(band(3 * kd + 1, 2 * kd, False), kd, kd, overwrite_ab=True)
        if info > 0:
            raise SolverError(f"singular operator: zero pivot {info} in banded LU")
        return lambda b: dgbtrs(lu, kd, kd, b, piv)[0]


def assemble(mesh: Mesh, cs: CoefficientSet,
             rhs: Optional[RightHandSide] = None) -> AssembledSystem:
    """Assemble the system matrix and load vector.

    An array (constant) leading field A is integrated by the centroid rule: P1
    gradients are constant per triangle, so that rule is exact for it.  A
    rule (variable) A, the lower-order fields B, C, D and the volume sources
    are evaluated at the three edge midpoints of each triangle, a rule exact for
    quadratics such as the P1 mass term of a constant D.  The triangles are
    taken ``BLOCK`` at a time, and a rule is called once per midpoint and block.
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
    variable = callable(cs.A)
    lower_order = not cs.is_zero_lower_order()
    # a constant A with no other terms needs no edge-midpoint points
    rule = _BARY if variable or lower_order or rhs is not None else ()
    # a constant A is evaluated once, at the first centroid
    A_1 = None if variable else cs.eval_A_many(pts[:1].mean(axis=1))
    # in blocks, so that the contractions' temporaries stay cache-sized
    for b in _blocks(T):
        E_b, fe_b, G_b, wa = E[b], fe[b], G[b], _WEIGHT * areas[b]
        if not variable:
            A_b = np.broadcast_to(A_1, (b.stop - b.start,) + A_1.shape[1:])
            E_b += np.einsum("t,tpqij,tbq,tap->taibj", areas[b], A_b, G_b, G_b,
                             optimize=True)
        for bq in rule:
            xq = np.einsum("a,tad->td", bq, pts[b])
            if variable:
                A_q = cs.eval_A_many(xq)               # (t, n, n, m, m)
                E_b += np.einsum("t,tpqij,tbq,tap->taibj", wa, A_q, G_b, G_b, optimize=True)
            if lower_order:
                B_q = cs.eval_B_many(xq)               # (t, n, m, m)
                C_q = cs.eval_C_many(xq)
                D_q = cs.eval_D_many(xq)
                E_b += np.einsum("t,tpij,b,tap->taibj", wa, B_q, bq, G_b, optimize=True)
                E_b -= np.einsum("t,tqij,tbq,a->taibj", wa, C_q, G_b, bq, optimize=True)
                E_b -= np.einsum("t,tij,a,b->taibj", wa, D_q, bq, bq, optimize=True)
            if rhs is not None:                        # a source left None is zero
                fe_b += np.einsum("t,ti,a->tai", wa, evaluate_field("H", rhs.H, xq, (m,)), bq)
                fe_b += np.einsum("t,tip,tap->tai", wa,
                                  evaluate_field("F", rhs.F, xq, (m, 2)), G_b)

    dofs = (mesh.triangles[:, :, None] * m + np.arange(m)).reshape(T, 3 * m)
    load = np.bincount(dofs.ravel(), fe.ravel(), N * m)
    return AssembledSystem(mesh, cs, E.reshape(T, 3 * m, 3 * m), dofs, load)


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
    values[top] = data.phi(mesh.vertices[top])
    values[bot] = data.psi(mesh.vertices[bot])
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
    r = system.load[free] - system._apply(full)[free]      # rhs - K_ff x
    res = float(np.linalg.norm(r)) / scale
    if not res <= SOLVE_RTOL:
        full[free] += solve(r)
        r = system.load[free] - system._apply(full)[free]
        res = float(np.linalg.norm(r)) / scale
        if not res <= SOLVE_RTOL:
            raise SolverError(f"linear solve did not converge: relative residual {res:.3e}")
    return DiscreteSolution(mesh=system.mesh, values=full.reshape(-1, m))


def gradient_at(sol: DiscreteSolution, x) -> np.ndarray:
    """Gradients of the containing triangles (lowest index on ties).

    ``x`` of shape (2,) gives the matrix (m, 2), shape (k, 2) gives (k, m, 2).
    Only the located triangles' gradients are formed.
    """
    t = np.atleast_1d(sol.mesh.locate(x))
    g = np.einsum("tam,tad->tmd", sol.values[sol.mesh.triangles[t]],
                  sol.mesh.basis_gradients()[t])
    return g if np.ndim(x) == 2 else g[0]


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
