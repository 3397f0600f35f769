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
operator a solve uses: the element matrices, stored element-last, are summed
straight into LAPACK's band storage (LAPACK Users' Guide, SIAM 1999) one
local pair of dofs and ``BLOCK`` elements at a time, so no set-up temporary
is their size.  The Dirichlet rows and columns enter through an
element-by-element product.  Symmetric element matrices (every CLI system)
take banded Cholesky, ``dpbtrf`` and ``dpbtrs`` from ``_lapack``: the
OpenBLAS of the scipy wheel, called through ``ctypes`` with one thread, so no
command imports scipy (scipy's own wrappers where no such library is found).
Nonsymmetric element matrices (nonzero B or C) and operators that are not
positive definite (a large D) take scipy's banded LU, ``dgbtrf`` and
``dgbtrs``, imported only then.  ``scipy.sparse`` builds only ``K``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from ._lapack import dpbtrf, dpbtrs
from .auxiliary import BoundaryData, field_values
from .coefficients import CoefficientSet, evaluate_field
from .mesh import Mesh, TAG_BOTTOM, TAG_INTERIOR, TAG_TOP, p1_gradients

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
# max |E - E^T| / max |E| up to which the element matrices count as symmetric
SYMMETRY_RTOL = 1e-12
# elements assembled, or summed into the band per local pair, at a time: a
# block's terms (BLOCK (3m)^2 entries, 0.6 MB for m = 2) stay near L2 size
BLOCK = 2048
# largest band n (kd + 1) 8 bytes plus element matrices T (3m)^2 8 bytes a
# planned problem may need: the sweep at mesh.layers = 48 builds stations
# levels up to a 15 MiB band and 6 MiB of element matrices and a layers level
# of 28 + 5 MiB, at 192 layers 246 + 23 and 446 + 21 MiB; at 12 layers and
# mesh.dxmax = 1e-4 the elements (132 MiB) outweigh the band (87 MiB)
MAX_BAND_BYTES = 2**30
# band position of a fixed dof: with kd >= 1, every slot it enters is negative
_FIXED = -2**40


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

        Entry (i, j) goes to ``ab[diag + i - j, j]``, slot ``diag + i + (rows - 1) j``.
        The band is filled one local pair (a, c) at a time, ``BLOCK`` elements at
        a time, by ``np.add.at``: every slot sums in (pair, element) order.
        Cholesky reads the lower pairs, each entry from ``E[a, c]`` or ``E[c, a]``,
        whichever lies below the diagonal, and tests max |E - E^T| pair by pair;
        LU reads every pair.  Slots in a fixed row or column are negative
        (``_FIXED``) and clip to the spare slot past the end.
        """
        n, E = int(free.sum()), self.E          # E[a, c, t]
        k, blocks = len(E), _blocks(E.shape[2])
        pos = np.where(free, np.cumsum(free) - 1, _FIXED)  # free dofs keep their order
        loc = pos[self.dofs]                             # (3m, T)
        kd = max(1, int(np.max(loc.max(0) - np.where(loc >= 0, loc, n).min(0))))

        def band(rows, diag, lower):
            """The band, and with ``lower`` whether the element matrices are symmetric."""
            ab, asym = np.zeros(rows * n + 1), 0.0
            scale = max(float(E.max()), -float(E.min())) if lower else 0.0
            for a in range(k):
                for c in range(a + 1) if lower else range(k):
                    if lower and a != c:
                        d = E[a, c] - E[c, a]
                        asym = max(asym, float(d.max()), -float(d.min()))
                    for b in blocks:
                        i, j, v = loc[a, b], loc[c, b], E[a, c, b]
                        if lower and a != c:     # the entry below the diagonal
                            v = np.where(i >= j, v, E[c, a, b])
                            i, j = np.maximum(i, j), np.minimum(i, j)
                        slot = (rows - 1) * j
                        slot += i
                        np.add.at(ab[diag:], np.maximum(slot, -1, out=slot), v)
            return ab[:-1].reshape(rows, n, order="F"), asym <= SYMMETRY_RTOL * scale

        ab, symmetric = band(kd + 1, 0, True)
        if symmetric:
            cb, info = dpbtrf(ab, lower=1, overwrite_ab=1)
            if info == 0:
                return lambda b: dpbtrs(cb, b, lower=1)[0]
            # info > 0: not positive definite, LU below
        from scipy.linalg.lapack import dgbtrf, dgbtrs    # off every command's path
        lu, piv, info = dgbtrf(band(3 * kd + 1, 2 * kd, False)[0], kd, kd, overwrite_ab=True)
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
    for b in _blocks(T):
        x, y = mesh.vertex_rows(b)
        G, det = p1_gradients(x, y)                    # G[p, a, t]
        area = 0.5 * np.abs(det)
        if np.any(area <= 0) or not np.all(np.isfinite(G)):
            raise SolverError("singular element geometry")
        wa = _WEIGHT * area
        W = ((wa if variable else area) * G)[:, None, :, None] * G[None, :, None]
        mids = [np.stack([0.5 * (x[k] + x[l]), 0.5 * (y[k] + y[l])], axis=1) for k, l in rule]
        if variable:       # a rule A, summed over the midpoints, times wa G[a, p] G[b, q]
            A = sum(cs.eval_A_many(xq) for xq in mids).reshape(-1, 4, m * m)
            R = np.einsum("tkx,kyt->xyt", A, W.reshape(4, 9, -1))
        else:
            R = A_1 @ W.reshape(4, -1)
        R = R.reshape(m * m, 3, 3, -1)
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
