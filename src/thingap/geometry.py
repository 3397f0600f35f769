"""Narrow-gap geometry between two nearly touching graph boundaries.

The gap of width ``epsilon`` at the origin is bounded above by the graph
``x_n = epsilon/2 + h_top(x')`` and below by ``x_n = -epsilon/2 + h_bot(x')``,
where ``x = (x', x_n)`` splits a point into its tangential part ``x'`` (in
R^{n-1}) and vertical part ``x_n``.  Both profiles vanish to first order at
``x' = 0`` and their gradients grow like ``|x'|^gamma``, so the local gap
width is

    gap_width(x') = epsilon + h_top(x') - h_bot(x'),

which is comparable to ``epsilon + |x'|^{1+gamma}``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np


class GeometryError(ValueError):
    """Raised when a geometric precondition or invariant fails."""


# central-difference check of a profile's gradient rule: step, tolerance
FD_STEP = 1e-7
FD_RTOL = 1e-6


def _radius(xp, keepdims: bool = False) -> np.ndarray:
    """Norm over the last axis; for one coordinate ``|x|``, which equals
    ``np.linalg.norm``'s ``sqrt(x*x)`` unless ``x*x`` underflows."""
    if xp.shape[-1] == 1:
        return np.abs(xp if keepdims else xp[..., 0])
    return np.linalg.norm(xp, axis=-1, keepdims=keepdims)


def _as_tangential(xp, d):
    """Coerce ``xp`` to a float array of shape (..., d)."""
    a = np.asarray(xp, dtype=float)
    if d == 1 and (a.ndim == 0 or a.shape[-1] != 1):
        a = a[..., np.newaxis]
    if a.shape[-1] != d:
        raise GeometryError(f"tangential point has dimension {a.shape[-1]}, expected {d}")
    return a


@dataclass(frozen=True)
class BoundaryProfile:
    """One boundary graph ``x_n = const + h(x')`` with its exact gradient.

    ``evaluate`` maps tangential points of shape (..., d) to values of
    shape (...); ``gradient`` maps them to shape (..., d).  The built-in
    power-law family is ``h(x') = c |x'|^{1+gamma}``, signed by ``c``.
    """

    evaluate: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray]
    description: str = "custom"

    def check_gradient(self, points: np.ndarray) -> float:
        """Compare the gradient rule against central differences of ``evaluate``.

        Returns the worst relative error over ``points`` (shape (k, d)) and
        raises when it exceeds ``FD_RTOL``; the difference step is ``FD_STEP``.
        Points too close to a kink should be excluded by the caller.
        """
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, np.newaxis]
        d = pts.shape[1]
        g = np.asarray(self.gradient(pts), dtype=float).reshape(pts.shape)
        fd = np.empty_like(g)
        for a in range(d):
            step = np.zeros(d)
            step[a] = FD_STEP
            fd[:, a] = (self.evaluate(pts + step) - self.evaluate(pts - step)) / (2 * FD_STEP)
        # error relative to the gradient magnitude: individual components can
        # legitimately vanish near the coordinate axes
        scale = np.maximum(np.linalg.norm(g, axis=1), np.linalg.norm(fd, axis=1))
        err = np.linalg.norm(fd - g, axis=1) / np.maximum(scale, 1e-12)
        worst = float(np.max(err)) if err.size else 0.0
        if worst > FD_RTOL:
            raise GeometryError(
                f"profile '{self.description}': gradient rule disagrees with finite "
                f"differences (relative error {worst:.3e} > {FD_RTOL:.1e})"
            )
        return worst


def power_profile(c: float, gamma: float) -> BoundaryProfile:
    """Power-law profile ``h(x') = c |x'|^{1+gamma}`` with exact gradient.

    The gradient ``c (1+gamma) |x'|^{gamma-1} x'`` extends continuously by 0
    at the origin, so the profile is C^1 with a gamma-Holder first derivative.
    """
    expo = 1.0 + gamma

    def evaluate(xp):
        xp = np.asarray(xp, dtype=float)
        r = _radius(xp) if xp.ndim else np.abs(xp)
        return c * r**expo

    def gradient(xp):
        xp = np.atleast_1d(np.asarray(xp, dtype=float))
        r = _radius(xp, keepdims=True)
        with np.errstate(divide="ignore", invalid="ignore"):
            g = c * expo * r ** (gamma - 1.0) * xp
        return np.where(r > 0, g, 0.0)

    return BoundaryProfile(evaluate, gradient, description=f"power(c={c}, gamma={gamma})")


def flat_profile() -> BoundaryProfile:
    """Identically zero profile (oracle mode: flat rectangle geometry)."""

    def evaluate(xp):
        xp = np.asarray(xp, dtype=float)
        shape = xp.shape[:-1] if xp.ndim else ()
        return np.zeros(shape)

    def gradient(xp):
        return np.zeros_like(np.atleast_1d(np.asarray(xp, dtype=float)))

    return BoundaryProfile(evaluate, gradient, description="flat")


@dataclass(frozen=True)
class GapGeometry:
    """The narrow region and its derived quantities.

    Parameters
    ----------
    epsilon : gap width at ``x' = 0``.
    gamma : Holder exponent of the profile gradients, in (0, 1).
    dim : ambient dimension n >= 2 (tangential dimension is n - 1).
    profile_top, profile_bottom : boundary graphs relative to ``+-epsilon/2``.
    kappa0, kappa1 : envelope constants for the profile gradients,
        ``kappa0 |x'|^gamma <= |grad h| <= kappa1 |x'|^gamma``.  ``kappa0 = 0``
        marks oracle-mode (flat) geometry where the lower envelope is waived.
    kappa2 : bound on the C^{1,gamma} norms of the two profiles.
    """

    epsilon: float
    gamma: float
    dim: int = 2
    profile_top: BoundaryProfile = field(default_factory=flat_profile)
    profile_bottom: BoundaryProfile = field(default_factory=flat_profile)
    kappa0: float = 0.0
    kappa1: float = 0.0
    kappa2: float = 0.0

    def __post_init__(self):
        if self.epsilon <= 0:
            raise GeometryError(f"epsilon must be positive, got {self.epsilon}")
        if not (0.0 < self.gamma < 1.0):
            raise GeometryError(f"gamma must lie in (0, 1), got {self.gamma}")
        if self.dim < 2:
            raise GeometryError(f"dim must be >= 2, got {self.dim}")
        if self.kappa0 < 0 or self.kappa1 < self.kappa0:
            raise GeometryError("need 0 <= kappa0 <= kappa1")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def power_law(epsilon: float, gamma: float, c_top: float = 1.0,
                  c_bottom: float = -1.0, dim: int = 2) -> "GapGeometry":
        """Built-in family ``h_top = c_top |x'|^{1+gamma}``, ``h_bot = c_bottom |x'|^{1+gamma}``.

        With ``c_top >= 0 >= c_bottom`` (not both zero) the envelope constants
        are exactly ``(1+gamma) min|c|`` and ``(1+gamma) max|c|`` over both
        amplitudes, so a one-sided profile (one ``c`` zero) has ``kappa0 = 0``.
        """
        amps = [abs(c) for c in (c_top, c_bottom)]
        if max(amps) == 0.0:
            return GapGeometry.flat(epsilon, gamma, dim=dim)
        kappa0 = (1.0 + gamma) * min(amps)
        kappa1 = (1.0 + gamma) * max(amps)
        # sup|h| + sup|grad h| + [grad h]_gamma on the unit ball, per profile;
        # for |x|^{1+gamma} the seminorm of the gradient is at most 2(1+gamma).
        kappa2 = sum(a * (1.0 + (1.0 + gamma) + 2.0 * (1.0 + gamma)) for a in amps)
        return GapGeometry(
            epsilon=epsilon, gamma=gamma, dim=dim,
            profile_top=power_profile(c_top, gamma),
            profile_bottom=power_profile(c_bottom, gamma),
            kappa0=kappa0, kappa1=kappa1, kappa2=kappa2,
        )

    @staticmethod
    def flat(epsilon: float, gamma: float = 0.5, dim: int = 2) -> "GapGeometry":
        """Flat rectangle geometry (oracle mode; gradient envelope waived)."""
        return GapGeometry(epsilon=epsilon, gamma=gamma, dim=dim,
                           profile_top=flat_profile(), profile_bottom=flat_profile(),
                           kappa0=0.0, kappa1=0.0, kappa2=0.0)

    # -- basic evaluations -------------------------------------------------

    @property
    def tangential_dim(self) -> int:
        return self.dim - 1

    def top(self, xp) -> np.ndarray:
        """Height of the upper boundary, ``epsilon/2 + h_top(x')``."""
        xp = _as_tangential(xp, self.tangential_dim)
        return 0.5 * self.epsilon + np.asarray(self.profile_top.evaluate(xp), dtype=float)

    def bottom(self, xp) -> np.ndarray:
        """Height of the lower boundary, ``-epsilon/2 + h_bot(x')``."""
        xp = _as_tangential(xp, self.tangential_dim)
        return -0.5 * self.epsilon + np.asarray(self.profile_bottom.evaluate(xp), dtype=float)

    def gap_width(self, xp) -> np.ndarray:
        """Local gap width ``epsilon + h_top(x') - h_bot(x')``.

        Raises for tangential points outside the unit ball, where the
        profiles are not defined.
        """
        xp = _as_tangential(xp, self.tangential_dim)
        if np.any(_radius(xp) > 1.0 + 1e-12):
            raise GeometryError("tangential point outside the unit ball")
        w = (self.epsilon
             + np.asarray(self.profile_top.evaluate(xp), dtype=float)
             - np.asarray(self.profile_bottom.evaluate(xp), dtype=float))
        if np.any(w <= 0):
            raise GeometryError("gap width is not positive: boundaries cross")
        return w

    def boundary_point(self, side: str, xp) -> np.ndarray:
        """Point on the upper or lower boundary above/below ``x'``."""
        if side not in ("top", "bottom"):
            raise GeometryError(f"side must be 'top' or 'bottom', got {side!r}")
        xp = _as_tangential(xp, self.tangential_dim)
        if np.any(_radius(xp) > 1.0 + 1e-12):
            raise GeometryError("tangential point outside the unit ball")
        xn = self.top(xp) if side == "top" else self.bottom(xp)
        return np.concatenate([xp, xn[..., np.newaxis]], axis=-1)

    def midline(self, xp) -> np.ndarray:
        """Vertical midpoint of the gap, ``(h_top + h_bot)/2``."""
        return 0.5 * (self.top(xp) + self.bottom(xp))

    # -- validation ---------------------------------------------------------

    def validate(self, samples: int = 1000, seed: int = 0) -> None:
        """Sampled check of the structural conditions on the profiles.

        Checks, on ``samples`` quasi-uniform tangential points of the unit
        ball: the profiles and their gradients vanish at the origin, the
        boundaries do not cross, the gap width is positive, the gradient
        rules match finite differences, and (unless in oracle mode) the
        two-sided envelope ``kappa0 |x'|^gamma <= |grad h| <= kappa1 |x'|^gamma``.
        """
        rng = np.random.default_rng(seed)
        d = self.tangential_dim
        zero = np.zeros(d)
        for prof, name in ((self.profile_top, "top"), (self.profile_bottom, "bottom")):
            h0 = float(np.asarray(prof.evaluate(zero)))
            g0 = float(np.linalg.norm(np.asarray(prof.gradient(zero))))
            if abs(h0) > 1e-12 or g0 > 1e-12:
                raise GeometryError(f"{name} profile must vanish to first order at the origin")
        if d == 1:
            xp = np.concatenate([np.linspace(-1, 1, samples // 2)[:, None],
                                 rng.uniform(-1, 1, size=(samples - samples // 2, 1))])
        else:
            v = rng.normal(size=(samples, d))
            v /= np.linalg.norm(v, axis=1, keepdims=True)
            xp = v * rng.uniform(0, 1, size=(samples, 1)) ** (1.0 / d)
        w = self.gap_width(xp)          # raises if boundaries cross
        if np.any(self.bottom(xp) >= self.top(xp)):
            raise GeometryError("boundary ordering violated on samples")
        r = np.linalg.norm(xp, axis=-1)
        away = r > 1e-3                 # finite differencing near the kink is noisy
        if np.any(away):
            self.profile_top.check_gradient(xp[away])
            self.profile_bottom.check_gradient(xp[away])
        if self.kappa0 > 0.0:
            env = r**self.gamma
            for prof, name in ((self.profile_top, "top"), (self.profile_bottom, "bottom")):
                g = np.linalg.norm(np.asarray(prof.gradient(xp), dtype=float).reshape(xp.shape),
                                   axis=-1)
                lo_bad = g < self.kappa0 * env - 1e-12
                hi_bad = g > self.kappa1 * env + 1e-12
                if np.any(lo_bad) or np.any(hi_bad):
                    raise GeometryError(
                        f"{name} profile gradient leaves the "
                        f"[{self.kappa0}, {self.kappa1}] |x'|^gamma envelope")

@dataclass(frozen=True)
class LocalRegion:
    """Slab of the narrow region around a center: ``|x' - z'| < s`` inside the gap."""

    center: np.ndarray
    radius: float
    geom: GapGeometry

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        if self.radius <= 0:
            raise GeometryError(f"region radius must be positive, got {self.radius}")
        if self.center.shape != (self.geom.dim,):
            raise GeometryError("region center must be a full point (x', x_n)")

    @property
    def center_tangential(self) -> np.ndarray:
        return self.center[:-1]

    def contains(self, x) -> np.ndarray:
        """Membership test: vertical strip condition plus ``|x' - z'| < radius``."""
        x = np.asarray(x, dtype=float)
        xp, xn = x[..., :-1], x[..., -1]
        near = _radius(xp - self.center_tangential) < self.radius
        if np.any(near):
            near = near & (xn > self.geom.bottom(xp)) & (xn < self.geom.top(xp))
        return near if near.shape else bool(near)

    def sample_points(self, k: int, seed: int, tag: int) -> np.ndarray:
        """``k`` points uniform in the tangential slab, uniform in each fiber.

        Each random variable draws from its own stream seeded by
        ``(seed, tag, variable)``, so a larger ``k`` extends a smaller one
        point for point (prefix-stable sampling); ``tag`` separates the
        streams of independent draws on the same slab (one tangential
        dimension needs no radius stream).  Each profile is evaluated once.
        """
        d = self.geom.tangential_dim
        zc = self.center_tangential
        rng_dir = np.random.default_rng([seed, tag, 1])
        rng_hgt = np.random.default_rng([seed, tag, 3])
        if d == 1:
            xp = zc + self.radius * rng_dir.uniform(-1, 1, size=(k, 1))
        else:
            rng_rad = np.random.default_rng([seed, tag, 2])
            v = rng_dir.normal(size=(k, d))
            v /= np.linalg.norm(v, axis=1, keepdims=True)
            xp = zc + self.radius * v * rng_rad.uniform(0, 1, size=(k, 1)) ** (1.0 / d)
        # clip to the unit ball where the profiles are defined
        r = _radius(xp, keepdims=True)
        over = r > 1.0
        if np.any(over):
            xp = np.where(over, xp / r, xp)
        bot, top = self.geom.bottom(xp), self.geom.top(xp)
        xn = bot + rng_hgt.uniform(0, 1, size=k) * (top - bot)
        return np.concatenate([xp, xn[:, np.newaxis]], axis=1)
