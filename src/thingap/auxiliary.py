"""Closed-form extension of the data across the gap and Holder-seminorm sampling.

On the planar gap of :class:`GapGeometry`, the scalar profile

    gap_fraction(x) = (x_2 - h_bot(x') + epsilon/2) / gap_width(x')

interpolates 0 on the lower boundary to 1 on the upper one; its vertical
derivative is exactly ``1/gap_width(x')``, which carries the full singular
behaviour as the gap closes.  Boundary data (phi on top, psi on bottom: per
component the coefficients of a polynomial in x', evaluated at a float or an
array (k,) of tangential coordinates) are extended componentwise,

    ext^(l)(x) = phi^(l)(x') gap_fraction(x) + psi^(l)(x') (1 - gap_fraction(x)),

and for data with one nonzero component (``BoundaryData.only``) the gradient
of this extension is the dominant singular part of the solution gradient.
This module evaluates the extension and its exact gradient, with one
:meth:`GapGeometry.profiles` pass per batch of points, estimates Holder
seminorms of vector fields by pair sampling, and checks the structural
growth bound for the seminorm of the extension gradient on small slabs.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from typing import Sequence

import numpy as np

from .geometry import GapGeometry, GeometryError, LocalRegion, _tangential


class ConfigurationError(ValueError):
    """Raised when a check is invoked outside its hypotheses."""


# stations of the sampled C^{1,gamma} data norms: sups, then all pairs
NORM_SUP_POINTS = 2001
NORM_PAIR_POINTS = 201
# slab radii of the seminorm growth check, in gap widths: up to the bound's
# hypothesis, a radius of one gap width
SLAB_FRACTIONS = (0.25, 0.5, 1.0)


def _rows(x) -> tuple[np.ndarray, bool]:
    """View ``x`` as (k, 2); report whether the input was a single point."""
    a = np.asarray(x, dtype=float)
    return (a[np.newaxis, :], True) if a.ndim == 1 else (a, False)


def _row_norms(a: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(a, axis=1)`` bit for bit, one contiguous pass per column.

    numpy sums rows of up to 8 entries left to right, as here, but reduces a
    short inner axis several times slower; wider rows take ``np.linalg.norm``.
    """
    if a.shape[1] > 8:
        return np.linalg.norm(a, axis=1)
    sq = a[:, 0] * a[:, 0]
    for j in range(1, a.shape[1]):
        sq += a[:, j] * a[:, j]
    return np.sqrt(sq)


# ---------------------------------------------------------------------------
# boundary data
# ---------------------------------------------------------------------------

def _polynomials(coeffs: np.ndarray, xp, derivative: bool = False) -> np.ndarray:
    """Each row of ``coeffs`` as a polynomial in ``x'``, or with ``derivative``
    its derivative: (k, m) at x' of shape (k,), (m,) at a float."""
    t = _tangential(xp)
    T = np.atleast_1d(t)    # a float as one point: numpy's power, not Python's (last bit)
    if coeffs.shape[1] == 1:        # read-only broadcast views
        out = np.broadcast_to(0.0 if derivative else coeffs[:, 0], (T.size, coeffs.shape[0]))
    elif derivative:
        out = sum(k * c * (T ** (k - 1))[:, None] for k, c in enumerate(coeffs.T) if k >= 1)
    else:
        out = sum(c * (T**k)[:, None] for k, c in enumerate(coeffs.T))
    return out if np.ndim(t) else out[0]


@dataclass(frozen=True)
class BoundaryData:
    """Vector-valued Dirichlet data on the two gap boundaries.

    Row ``l`` of ``phi_coeffs`` (upper graph) and ``psi_coeffs`` (lower graph)
    holds the coefficients of 1, x1, x1^2, ... of component ``l``, zero-padded
    per side.  :meth:`phi`, :meth:`psi`, :meth:`jump` and the exact tangential
    derivatives :meth:`dphi` and :meth:`dpsi` take ``x'`` as an array (k,) and
    return (k, m), or as a float and return (m,).  Degree-0 data evaluate to
    read-only broadcast views.
    ``phi_norms`` and ``psi_norms`` are declared per-component C^{1,gamma}
    norms on the graphs.
    """

    phi_coeffs: np.ndarray
    psi_coeffs: np.ndarray
    phi_norms: np.ndarray
    psi_norms: np.ndarray

    @property
    def m(self) -> int:
        return self.phi_coeffs.shape[0]

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(phi_values: Sequence[float], psi_values: Sequence[float]) -> "BoundaryData":
        """Constant data; the declared norm of a constant is its magnitude."""
        pv = np.asarray(phi_values, dtype=float)
        sv = np.asarray(psi_values, dtype=float)
        if pv.shape != sv.shape or pv.ndim != 1:
            raise ConfigurationError("phi and psi must be 1-d of equal length")
        return BoundaryData(pv[:, None], sv[:, None], np.abs(pv), np.abs(sv))

    @staticmethod
    def polynomial(phi_coeffs: Sequence[Sequence[float]],
                   psi_coeffs: Sequence[Sequence[float]],
                   geom: GapGeometry) -> "BoundaryData":
        """Per-component polynomials in the tangential coordinate.

        ``phi_coeffs[l]`` lists the coefficients of 1, x1, x1^2, ... for
        component ``l``.  Declared norms are sampled on the actual graphs.
        """
        if len(phi_coeffs) != len(psi_coeffs):
            raise ConfigurationError("phi and psi need the same number of components")
        pc, sc = (_padded(rows) for rows in (phi_coeffs, psi_coeffs))
        return BoundaryData(pc, sc, _sampled_graph_norms(pc, geom, "top"),
                            _sampled_graph_norms(sc, geom, "bottom"))

    def phi(self, xp) -> np.ndarray:
        return _polynomials(self.phi_coeffs, xp)

    def psi(self, xp) -> np.ndarray:
        return _polynomials(self.psi_coeffs, xp)

    def dphi(self, xp) -> np.ndarray:
        return _polynomials(self.phi_coeffs, xp, derivative=True)

    def dpsi(self, xp) -> np.ndarray:
        return _polynomials(self.psi_coeffs, xp, derivative=True)

    def jump(self, xp) -> np.ndarray:
        """Componentwise data jump ``phi(x') - psi(x')``."""
        return self.phi(xp) - self.psi(xp)

    def only(self, ell: int) -> "BoundaryData":
        """The same data with every component but ``ell`` (0-based) set to zero.

        The other coefficient rows and norms are assigned exact zeros in a
        copy: a multiply by 0 could leave -0.0.
        """
        if not 0 <= ell < self.m:
            raise ConfigurationError(f"component {ell} out of range for m = {self.m}")
        parts = astuple(self)           # copies of the four arrays
        for a in parts:
            a[np.arange(self.m) != ell] = 0.0
        return BoundaryData(*parts)


def _padded(rows: Sequence[Sequence[float]]) -> np.ndarray:
    """Coefficient lists as the rows of one zero-padded (m, p) array, p >= 1."""
    out = np.zeros((len(rows), max([1] + [len(r) for r in rows])))
    for row, r in zip(out, rows):
        row[:len(r)] = r
    return out


def _sampled_graph_norms(coeffs: np.ndarray, geom: GapGeometry, side: str) -> np.ndarray:
    """Sampled per-component C^{1,gamma} norm of data composed on a graph.

    Sups over ``NORM_SUP_POINTS`` stations, the seminorm over all pairs of
    ``NORM_PAIR_POINTS`` stations.
    """
    t = np.linspace(-1.0, 1.0, NORM_SUP_POINTS)
    vals = _polynomials(coeffs, t)
    sup_v = np.max(np.abs(vals), axis=0)
    sup_d = np.max(np.abs(_polynomials(coeffs, t, derivative=True)), axis=0)
    tp = np.linspace(-1.0, 1.0, NORM_PAIR_POINTS)
    pp = geom.boundary_point(side, tp)
    dd = _polynomials(coeffs, tp, derivative=True)
    diff = np.abs(dd[:, None, :] - dd[None, :, :])
    dist = np.linalg.norm(pp[:, None, :] - pp[None, :, :], axis=-1)
    iu = np.triu_indices(NORM_PAIR_POINTS, k=1)
    quot = diff[iu] / dist[iu][:, None] ** geom.gamma
    semi = np.max(quot, axis=0) if quot.size else np.zeros(vals.shape[1])
    return sup_v + sup_d + semi


# ---------------------------------------------------------------------------
# the scalar profile and the data extension
# ---------------------------------------------------------------------------

def _fibers(geom: GapGeometry, x, gradient: bool = False):
    """One profile pass over the points ``x`` (with ``gradient`` the slopes
    too): whether ``x`` was a single point, the gap fractions and widths, the
    tangential coordinates ``x'`` (k,) (the data depend on them alone), and with
    ``gradient`` the tangential component of the gap-fraction gradient, else
    None.  Raises outside the unit tangential ball, where the boundaries
    cross and outside the closure of the gap."""
    X, single = _rows(x)
    xp, xn = X[:, 0], X[:, 1]
    if np.any(np.abs(xp) > 1.0 + 1e-12):
        raise GeometryError("point outside the unit tangential ball")
    eps = geom.epsilon
    htop, hbot, *slopes = geom.profiles(xp, gradient)
    top, bot, width = 0.5 * eps + htop, -0.5 * eps + hbot, eps + htop - hbot
    if np.any(width <= 0):
        raise GeometryError("gap width is not positive: boundaries cross")
    tol = 1e-12 * max(1.0, eps)
    if np.any(xn < bot - tol) or np.any(xn > top + tol):
        raise GeometryError("point outside the closure of the gap region")
    tang = None
    if gradient:
        # the three terms of gap_fraction_gradient, summed left to right;
        # h_bot - eps/2 is the lower boundary's height
        dtop, dbot = slopes
        dw, w2 = dtop - dbot, width**2
        tang = -dbot / width
        tang -= xn * dw / w2
        tang += bot * dw / w2
    return single, (xn - bot) / (top - bot), width, xp, tang


def gap_fraction(geom: GapGeometry, x) -> np.ndarray:
    """Normalized height in the gap: 0 on the bottom boundary, 1 on the top.

    Accepts single points or rows; raises for points outside the closure.
    """
    single, u = _fibers(geom, x)[:2]
    return float(u[0]) if single else u


def gap_fraction_gradient(geom: GapGeometry, x) -> np.ndarray:
    """Exact gradient of :func:`gap_fraction`.

    The vertical component is ``1/gap_width(x')`` identically.  The
    tangential component splits into three parts: the moving lower boundary,
    the vertical coordinate against the varying width, and the boundary
    offset against the varying width,

        -h_bot' / w  -  x_2 w' / w^2  +  (h_bot - eps/2) w' / w^2,

    with ``w = gap_width(x')`` and ``'`` the derivative in ``x'``.  All
    three vanish at ``x' = 0``.  Rows ``(d/dx', d/dx_2)``.
    """
    single, _, width, _, tang = _fibers(geom, x, gradient=True)
    out = np.stack([tang, 1.0 / width], axis=1)
    return out[0] if single else out


def field_values(geom: GapGeometry, data: BoundaryData, x) -> np.ndarray:
    """All components of the data extension at ``x``; shape (k, m)."""
    single, u, _, xp, _ = _fibers(geom, x)
    u = u[:, None]
    vals = data.phi(xp) * u + data.psi(xp) * (1.0 - u)
    return vals[0] if single else vals


def field_gradients(geom: GapGeometry, data: BoundaryData, x) -> np.ndarray:
    """Exact gradients of all components of the extension; shape (k, m, 2).

    Product rule: tangential entries combine the tangential data derivatives
    weighted by the profile with the data jump times the profile gradient;
    the vertical entry is exactly ``jump(x') / gap_width(x')``.  Per batch,
    each profile and each profile gradient is evaluated once.
    """
    single, u, width, xp, tang = _fibers(geom, x, gradient=True)
    dp, ds = data.dphi(xp), data.dpsi(xp)       # (k, m)
    jump = data.jump(xp)
    v, inv_w = 1.0 - u, 1.0 / width
    out = np.empty((u.size, data.m, 2))
    for ell in range(data.m):   # one pass per entry: broadcasting over short axes is slower
        out[:, ell, 0] = dp[:, ell] * u + ds[:, ell] * v + jump[:, ell] * tang
        out[:, ell, 1] = jump[:, ell] * inv_w
    return out[0] if single else out


# ---------------------------------------------------------------------------
# Holder seminorm sampling
# ---------------------------------------------------------------------------

def holder_seminorm(f, region: LocalRegion, gamma: float, pairs: int = 2000,
                    seed: int = 0) -> float:
    """Sampled Holder seminorm ``sup |f(x)-f(y)| / |x-y|^gamma`` on a slab.

    Pairs are drawn at three separation scales (0.5, 0.1 and 0.01 of the slab
    radius) plus unconstrained random pairs, because the supremum may live at
    either the slab scale or the short scale.  Differences use the Euclidean
    norm of the flattened field values.  The estimate is a lower bound of the
    true seminorm, and the sampling streams are prefix-stable: growing the
    pair budget only adds pairs, so the output never decreases.
    """
    if pairs < 1:
        raise ConfigurationError("pairs must be >= 1")
    budget = -(-pairs // 4)
    xs, ys = [], []
    for ci, scale in enumerate((0.5, 0.1, 0.01)):
        x0 = region.sample_points(budget, seed, tag=ci)
        u = np.random.default_rng([seed, ci, 9]).normal(size=(budget, 2))
        u /= _row_norms(u)[:, None]
        y0 = x0 + scale * region.radius * u
        keep = region.contains(y0)
        xs.append(np.compress(keep, x0, axis=0))
        ys.append(np.compress(keep, y0, axis=0))
    xs.append(region.sample_points(budget, seed, tag=3))
    ys.append(region.sample_points(budget, seed, tag=4))
    XY = np.concatenate(xs + ys)            # the first points of all pairs, then the second
    k = XY.shape[0] // 2
    dist = _row_norms(XY[:k] - XY[k:])
    keep = dist > 0
    XY, dist = np.compress(np.tile(keep, 2), XY, axis=0), dist[keep]
    k = dist.size
    if k == 0:
        return 0.0
    fxy = np.asarray(f(XY), dtype=float).reshape(2 * k, -1)
    diff = _row_norms(fxy[:k] - fxy[k:])
    return float(np.max(diff / dist**gamma))


# ---------------------------------------------------------------------------
# growth bound for the extension-gradient seminorm on small slabs
# ---------------------------------------------------------------------------

@dataclass
class SeminormGrowthRow:
    s: float
    lhs: float
    rhs: float
    ratio: float
    hypothesis_ok: bool


@dataclass
class SeminormGrowthReport:
    """Sampled seminorm of the extension gradient against its structural bound.

    ``rows`` holds one entry per slab radius; ``fitted_constant`` is the
    smallest single constant making the bound hold across the admissible
    rows, i.e. the largest sampled ratio among rows whose slab satisfies the
    bound's comparability hypothesis (gap width at least half the center
    width throughout the slab).  Rows violating the hypothesis are still
    reported: there the slab reaches into the neck and the quotient grows
    without bound, which is outside what the estimate asserts.
    """

    rows: list
    fitted_constant: float


def seminorm_growth_rhs(geom: GapGeometry, data: BoundaryData, zp, s: float) -> float:
    """Structural bound for the seminorm of the extension gradient.

    For slab radius ``s`` at tangential center ``z'`` (a float) with local width
    ``w = gap_width(z')`` the bound is

        jump * (w^(-1 - 1/(1+g)) s^(1-g) + w^(-g - 1/(1+g)))
      + norms * (w^(-1 - 1/(1+g)) s^(2-g) + w^-1 s^(1-g)
                 + w^(-g - 1/(1+g)) s + w^-g),

    where ``jump`` sums the components' data jumps at ``z'`` in absolute
    value, ``norms`` sums their declared boundary norms, and ``g`` is the
    Holder exponent.  The extension is linear in the data, so the bound of
    each component adds up; for ``data.only(ell)`` it is component ``ell``'s.
    """
    g = geom.gamma
    w = geom.gap_width(zp)
    jump = float(np.sum(np.abs(data.jump(zp))))
    norms = float(np.sum(data.phi_norms) + np.sum(data.psi_norms))
    p = 1.0 / (1.0 + g)
    group1 = w ** (-1.0 - p) * s ** (1.0 - g) + w ** (-g - p)
    group2 = (w ** (-1.0 - p) * s ** (2.0 - g) + w ** (-1.0) * s ** (1.0 - g)
              + w ** (-g - p) * s + w ** (-g))
    return jump * group1 + norms * group2


def _slab_width_comparable(geom: GapGeometry, zp: float, s: float) -> bool:
    """Whether the gap width stays >= half the center width across the slab.

    The width is monotone in ``|x'|``, so its least value on the slab is at
    the slab's point nearest ``x' = 0`` (0 itself when the slab spans it) or
    at its farthest.

    This is the comparability property the growth bound relies on; slabs
    large enough to reach the neck from far away violate it.
    """
    r = abs(zp)
    w = geom.gap_width(zp)
    return bool(np.min(geom.gap_width(np.array([max(0.0, r - s), r + s]))) >= 0.5 * w)


def check_seminorm_growth(geom: GapGeometry, data: BoundaryData, z, pairs: int = 2000,
                          seed: int = 0) -> SeminormGrowthReport:
    """Compare sampled seminorms of the gradient of ``data``'s extension with the bound.

    Slab radii are ``s = fraction * gap_width(z')`` for each of
    ``SLAB_FRACTIONS``.  Each row also records whether the slab keeps the gap
    width comparable to its center value; the fitted constant is the largest
    lhs/rhs ratio over the comparable rows.
    """
    zp = float(z[0])
    w = geom.gap_width(zp)
    rows = []
    for frac in SLAB_FRACTIONS:
        s = frac * w
        region = LocalRegion(z, s, geom)
        lhs = holder_seminorm(lambda X: field_gradients(geom, data, X).reshape(X.shape[0], -1),
                              region, geom.gamma, pairs=pairs, seed=seed)
        rhs = seminorm_growth_rhs(geom, data, zp, s)
        ratio = lhs / rhs if rhs > 0 else (0.0 if lhs == 0.0 else np.inf)
        rows.append(SeminormGrowthRow(s=s, lhs=lhs, rhs=rhs, ratio=ratio,
                                      hypothesis_ok=_slab_width_comparable(geom, zp, s)))
    admissible = [r.ratio for r in rows if r.hypothesis_ok]
    fitted = max(admissible) if admissible else float("nan")
    return SeminormGrowthReport(rows=rows, fitted_constant=fitted)
