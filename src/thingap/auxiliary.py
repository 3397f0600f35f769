"""Closed-form extension of the data across the gap and Holder-seminorm sampling.

The scalar profile

    gap_fraction(x) = (x_n - h_bot(x') + epsilon/2) / gap_width(x')

interpolates 0 on the lower boundary to 1 on the upper one; its vertical
derivative is exactly ``1/gap_width(x')``, which carries the full singular
behaviour as the gap closes.  Boundary data (phi on top, psi on bottom) is
extended into the gap componentwise,

    ext^(l)(x) = phi^(l)(top(x')) gap_fraction(x)
               + psi^(l)(bot(x')) (1 - gap_fraction(x)),

and for data with one nonzero component (``BoundaryData.only``) the gradient
of this extension is the dominant singular part of the solution gradient.
This module evaluates the extension and its exact gradient, estimates
Holder seminorms of vector fields by pair sampling, and checks the
structural growth bound for the seminorm of the extension gradient on small
slabs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .geometry import GapGeometry, GeometryError, LocalRegion, _radius


class ConfigurationError(ValueError):
    """Raised when a check is invoked outside its hypotheses."""


# finite-difference check of the boundary-data derivative rules
VALIDATE_SAMPLES = 200
VALIDATE_RTOL = 1e-6
# stations of the sampled C^{1,gamma} data norms: sups, then all pairs
NORM_SUP_POINTS = 2001
NORM_PAIR_POINTS = 201
# stations at which a slab's gap width is compared with its center width
SLAB_CHECK_POINTS = 201


def _rows(x) -> tuple[np.ndarray, bool]:
    """View ``x`` as (k, n); report whether the input was a single point."""
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

def _poly_eval(coeffs: np.ndarray, t: np.ndarray) -> np.ndarray:
    return sum(c * t**k for k, c in enumerate(coeffs))


def _poly_deriv(coeffs: np.ndarray, t: np.ndarray) -> np.ndarray:
    return sum(k * c * t ** (k - 1) for k, c in enumerate(coeffs) if k >= 1)


@dataclass
class BoundaryData:
    """Vector-valued Dirichlet data on the two gap boundaries.

    ``phi`` and ``psi`` map boundary points (rows (k, n)) to values (k, m);
    they are evaluated only on the respective graphs, so rules may use just
    the tangential coordinates.  ``dphi`` and ``dpsi`` are the tangential
    derivatives along the graphs: d/dx'_a of the composed map
    ``x' -> phi(x', top(x'))``, shape (k, n-1, m).  ``phi_norms`` and
    ``psi_norms`` are declared per-component C^{1,gamma} norms on the
    graphs; the built-in constructors compute them by dense sampling.
    """

    m: int
    phi: Callable[[np.ndarray], np.ndarray]
    psi: Callable[[np.ndarray], np.ndarray]
    dphi: Callable[[np.ndarray], np.ndarray]
    dpsi: Callable[[np.ndarray], np.ndarray]
    phi_norms: np.ndarray = field(default=None)
    psi_norms: np.ndarray = field(default=None)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(phi_values: Sequence[float], psi_values: Sequence[float]) -> "BoundaryData":
        """Constant data; the declared norm of a constant is its magnitude."""
        pv = np.asarray(phi_values, dtype=float)
        sv = np.asarray(psi_values, dtype=float)
        if pv.shape != sv.shape or pv.ndim != 1:
            raise ConfigurationError("phi and psi must be 1-d of equal length")
        m = pv.size

        def make(vals):
            def rule(X):
                X = np.atleast_2d(X)
                return np.broadcast_to(vals, (X.shape[0], m))     # read-only, not copied
            return rule

        def dzero(X):
            X = np.atleast_2d(X)
            return np.broadcast_to(0.0, (X.shape[0], X.shape[1] - 1, m))

        return BoundaryData(m=m, phi=make(pv), psi=make(sv), dphi=dzero, dpsi=dzero,
                            phi_norms=np.abs(pv), psi_norms=np.abs(sv))

    @staticmethod
    def polynomial(phi_coeffs: Sequence[Sequence[float]],
                   psi_coeffs: Sequence[Sequence[float]],
                   geom: GapGeometry) -> "BoundaryData":
        """Per-component polynomials in the first tangential coordinate (n = 2).

        ``phi_coeffs[l]`` lists the coefficients of 1, x1, x1^2, ... for
        component ``l``.  Declared norms are sampled on the actual graphs.
        """
        if geom.dim != 2:
            raise ConfigurationError("polynomial boundary data is implemented for n = 2")
        pc = [np.asarray(c, dtype=float) for c in phi_coeffs]
        sc = [np.asarray(c, dtype=float) for c in psi_coeffs]
        if len(pc) != len(sc):
            raise ConfigurationError("phi and psi need the same number of components")
        m = len(pc)

        def make(coeffs):
            def rule(X):
                X = np.atleast_2d(X)
                t = X[:, 0]
                return np.stack([_poly_eval(c, t) for c in coeffs], axis=1)
            return rule

        def dmake(coeffs):
            def rule(X):
                X = np.atleast_2d(X)
                t = X[:, 0]
                out = np.stack([np.broadcast_to(_poly_deriv(c, t), t.shape) for c in coeffs],
                               axis=1)
                return out[:, np.newaxis, :]
            return rule

        data = BoundaryData(m=m, phi=make(pc), psi=make(sc), dphi=dmake(pc), dpsi=dmake(sc))
        data.phi_norms = _sampled_graph_norms(data.phi, data.dphi, geom, "top")
        data.psi_norms = _sampled_graph_norms(data.psi, data.dpsi, geom, "bottom")
        return data

    # -- validation ---------------------------------------------------------

    def validate(self, geom: GapGeometry) -> float:
        """Check tangential-derivative rules against finite differences along the graphs.

        Compares at ``VALIDATE_SAMPLES`` points; returns the worst relative
        error and raises when it exceeds ``VALIDATE_RTOL``.
        """
        d = geom.tangential_dim
        rng = np.random.default_rng(7)
        xp = rng.uniform(-0.9, 0.9, size=(VALIDATE_SAMPLES, d))
        worst = 0.0
        h = 1e-6
        for rule, drule, side in ((self.phi, self.dphi, "top"), (self.psi, self.dpsi, "bottom")):
            pts = geom.boundary_point(side, xp)
            want = np.asarray(drule(pts), dtype=float)
            for a in range(d):
                step = np.zeros(d)
                step[a] = h
                fp = rule(geom.boundary_point(side, xp + step))
                fm = rule(geom.boundary_point(side, xp - step))
                fd = (np.asarray(fp) - np.asarray(fm)) / (2 * h)
                scale = np.maximum(np.abs(want[:, a, :]), np.abs(fd))
                err = np.abs(fd - want[:, a, :]) / np.maximum(scale, 1.0)
                worst = max(worst, float(np.max(err)) if err.size else 0.0)
        if worst > VALIDATE_RTOL:
            raise ConfigurationError(
                f"tangential-derivative rules disagree with finite differences "
                f"({worst:.3e} > {VALIDATE_RTOL:.1e})")
        return worst

    def jump(self, geom: GapGeometry, xp) -> np.ndarray:
        """Componentwise data jump ``phi(top(x')) - psi(bot(x'))``, shape (k, m)."""
        xp2, single = _rows(np.atleast_1d(xp))
        if xp2.shape[1] == geom.dim:
            xp2 = xp2[:, :-1]
        out = (np.asarray(self.phi(geom.boundary_point("top", xp2)), dtype=float)
               - np.asarray(self.psi(geom.boundary_point("bottom", xp2)), dtype=float))
        return out[0] if single else out

    def only(self, ell: int) -> "BoundaryData":
        """The same data with every component but ``ell`` (0-based) set to zero.

        Values, tangential derivatives and declared norms of the other
        components are assigned exact zeros in a copy: a multiply by 0 could
        leave -0.0, and ``np.where`` with a broadcast mask costs more per call.
        """
        if not 0 <= ell < self.m:
            raise ConfigurationError(f"component {ell} out of range for m = {self.m}")
        drop = np.flatnonzero(np.arange(self.m) != ell)

        def zeroed(values):
            if values is None:          # norms not declared
                return None
            out = np.array(values, dtype=float)
            out[..., drop] = 0.0
            return out

        rules = [lambda X, r=r: zeroed(r(X)) for r in (self.phi, self.psi, self.dphi, self.dpsi)]
        return BoundaryData(self.m, *rules, zeroed(self.phi_norms), zeroed(self.psi_norms))


def _sampled_graph_norms(rule, drule, geom: GapGeometry, side: str) -> np.ndarray:
    """Sampled per-component C^{1,gamma} norm of data composed on a graph (n = 2).

    Sups over ``NORM_SUP_POINTS`` stations, the seminorm over all pairs of
    ``NORM_PAIR_POINTS`` stations.
    """
    t = np.linspace(-1.0, 1.0, NORM_SUP_POINTS)[:, None]
    pts = geom.boundary_point(side, t)
    vals = np.asarray(rule(pts), dtype=float)
    derivs = np.asarray(drule(pts), dtype=float)[:, 0, :]
    sup_v = np.max(np.abs(vals), axis=0)
    sup_d = np.max(np.abs(derivs), axis=0)
    tp = np.linspace(-1.0, 1.0, NORM_PAIR_POINTS)[:, None]
    pp = geom.boundary_point(side, tp)
    dd = np.asarray(drule(pp), dtype=float)[:, 0, :]
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
    """One geometry pass over ``x``, each profile (and with ``gradient`` each
    profile gradient) evaluated once: whether ``x`` was a single point, the gap
    fractions and widths, the points on the upper and lower boundaries, and with
    ``gradient`` the tangential part of the gap-fraction gradient, else None.
    Raises outside the unit tangential ball, where the boundaries cross and
    outside the closure of the gap."""
    X, single = _rows(x)
    if X.shape[-1] != geom.dim:
        raise GeometryError(f"point has dimension {X.shape[-1]}, expected {geom.dim}")
    xp, xn = X[:, :-1], X[:, -1]
    if np.any(_radius(xp) > 1.0 + 1e-12):
        raise GeometryError("point outside the unit tangential ball")
    eps = geom.epsilon
    htop = np.asarray(geom.profile_top.evaluate(xp), dtype=float)
    hbot = np.asarray(geom.profile_bottom.evaluate(xp), dtype=float)
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
        dbot = np.asarray(geom.profile_bottom.gradient(xp), dtype=float).reshape(xp.shape)
        dw = np.asarray(geom.profile_top.gradient(xp), dtype=float).reshape(xp.shape) - dbot
        w, w2 = width[:, None], (width**2)[:, None]
        tang = -dbot / w
        tang -= xn[:, None] * dw / w2
        tang += bot[:, None] * dw / w2
    top_pts, bot_pts = (np.concatenate([xp, h[:, None]], axis=1) for h in (top, bot))
    return single, (xn - bot) / (top - bot), width, top_pts, bot_pts, tang


def gap_fraction(geom: GapGeometry, x) -> np.ndarray:
    """Normalized height in the gap: 0 on the bottom boundary, 1 on the top.

    Accepts single points or rows; raises for points outside the closure.
    """
    single, u = _fibers(geom, x)[:2]
    return float(u[0]) if single else u


def gap_fraction_gradient(geom: GapGeometry, x) -> np.ndarray:
    """Exact gradient of :func:`gap_fraction`.

    The vertical component is ``1/gap_width(x')`` identically.  Each
    tangential component splits into three parts: the moving lower boundary,
    the vertical coordinate against the varying width, and the boundary
    offset against the varying width,

        -d_a h_bot / w  -  x_n d_a w / w^2  +  (h_bot - eps/2) d_a w / w^2,

    with ``w = gap_width(x')``.  All three vanish at ``x' = 0``.
    """
    single, _, width, _, _, tang = _fibers(geom, x, gradient=True)
    out = np.concatenate([tang, (1.0 / width)[:, None]], axis=1)
    return out[0] if single else out


def field_values(geom: GapGeometry, data: BoundaryData, x) -> np.ndarray:
    """All components of the data extension at ``x``; shape (k, m)."""
    single, u, _, top_pts, bot_pts, _ = _fibers(geom, x)
    u = u[:, None]
    vals = (np.asarray(data.phi(top_pts), dtype=float) * u
            + np.asarray(data.psi(bot_pts), dtype=float) * (1.0 - u))
    return vals[0] if single else vals


def field_gradients(geom: GapGeometry, data: BoundaryData, x) -> np.ndarray:
    """Exact gradients of all components of the extension; shape (k, m, n).

    Product rule: tangential entries combine the tangential data derivatives
    weighted by the profile with the data jump times the profile gradient;
    the vertical entry is exactly ``jump(x') / gap_width(x')``.  Per batch,
    each profile, each profile gradient and each data rule is called once.
    """
    single, u, width, top_pts, bot_pts, tang = _fibers(geom, x, gradient=True)
    dp = np.asarray(data.dphi(top_pts), dtype=float)       # (k, d, m)
    ds = np.asarray(data.dpsi(bot_pts), dtype=float)
    jump = np.asarray(data.phi(top_pts), dtype=float) - np.asarray(data.psi(bot_pts), dtype=float)
    k, d, m = dp.shape
    v, inv_w = 1.0 - u, 1.0 / width
    out = np.empty((k, m, d + 1))
    for ell in range(m):    # one pass per entry: broadcasting over short axes is slower
        for a in range(d):
            out[:, ell, a] = dp[:, a, ell] * u + ds[:, a, ell] * v + jump[:, ell] * tang[:, a]
        out[:, ell, d] = jump[:, ell] * inv_w
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
        u = np.random.default_rng([seed, ci, 9]).normal(size=(budget, region.geom.dim))
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

    For slab radius ``s`` at tangential center ``z'`` with local width
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
    w = float(geom.gap_width(zp))
    jump = float(np.sum(np.abs(data.jump(geom, zp))))
    norms = float(np.sum(data.phi_norms) + np.sum(data.psi_norms))
    p = 1.0 / (1.0 + g)
    group1 = w ** (-1.0 - p) * s ** (1.0 - g) + w ** (-g - p)
    group2 = (w ** (-1.0 - p) * s ** (2.0 - g) + w ** (-1.0) * s ** (1.0 - g)
              + w ** (-g - p) * s + w ** (-g))
    return jump * group1 + norms * group2


def _slab_width_comparable(geom: GapGeometry, zp: np.ndarray, s: float) -> bool:
    """Whether the gap width stays >= half the center width across the slab.

    The width is checked at ``SLAB_CHECK_POINTS`` stations across the slab.

    This is the comparability property the growth bound relies on; slabs
    large enough to reach the neck from far away violate it.
    """
    if geom.tangential_dim != 1:
        return True
    z0 = float(zp[0])
    w = float(geom.gap_width(zp))
    xs = np.clip(np.linspace(z0 - s, z0 + s, SLAB_CHECK_POINTS), -1.0, 1.0)
    return bool(np.min(geom.gap_width(xs[:, None])) >= 0.5 * w)


def check_seminorm_growth(geom: GapGeometry, data: BoundaryData, z,
                          s_fractions=(0.25, 0.5, 1.0), pairs: int = 2000,
                          seed: int = 0) -> SeminormGrowthReport:
    """Compare sampled seminorms of the gradient of ``data``'s extension with the bound.

    Slab radii are ``s = fraction * gap_width(z')``; fractions above 1
    violate the stated hypothesis of the bound and raise.  Each row also
    records whether the slab keeps the gap width comparable to its center
    value; the fitted constant is the largest lhs/rhs ratio over the
    comparable rows.
    """
    zp = np.asarray(z, dtype=float)[:-1]
    w = float(geom.gap_width(zp))
    rows = []
    for frac in s_fractions:
        s = float(frac) * w
        if frac > 1.0 + 1e-12:
            raise ConfigurationError(
                f"slab radius fraction {frac} exceeds the hypothesis bound 1")
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
