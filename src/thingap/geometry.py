"""Narrow-gap geometry in the plane between two nearly touching graphs.

The gap of width ``epsilon`` at the origin is bounded above by the graph
``x_2 = epsilon/2 + c_top |x'|^{1+gamma}`` and below by
``x_2 = -epsilon/2 + c_bottom |x'|^{1+gamma}``, where ``x = (x', x_2)``
splits a point into its tangential coordinate ``x'`` and its vertical one.
Both profiles vanish to first order at ``x' = 0`` and their slopes grow like
``|x'|^gamma``, so the local gap width

    gap_width(x') = epsilon + (c_top - c_bottom) |x'|^{1+gamma}

is comparable to ``epsilon + |x'|^{1+gamma}``.  ``c_top = c_bottom = 0`` is
the flat strip.  Only :meth:`GapGeometry.profiles` evaluates the profiles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class GeometryError(ValueError):
    """Raised when a geometric precondition or invariant fails."""


def _tangential(xp) -> np.ndarray:
    """Tangential coordinates as a float array: a trailing axis of length 1
    (rows of one coordinate) is dropped, so ``(k, 1)`` and ``(k,)`` give ``(k,)``;
    a Python float stays a float."""
    if isinstance(xp, float):
        return xp
    a = np.asarray(xp, dtype=float)
    return a[..., 0] if a.ndim and a.shape[-1] == 1 else a


def _any(mask) -> bool:
    return mask if isinstance(mask, bool) else bool(mask.any())


def _in_unit_ball(t: np.ndarray) -> None:
    if _any(abs(t) > 1.0 + 1e-12):
        raise GeometryError("tangential point outside the unit ball")


def _ends(geom: "GapGeometry", xp) -> tuple:
    """``(bottom, top)`` heights of the fibers over ``x'``, one profile pass."""
    h_top, h_bot = geom.profiles(xp)
    return -0.5 * geom.epsilon + h_bot, 0.5 * geom.epsilon + h_top


@dataclass(frozen=True)
class GapGeometry:
    """The gap between ``+-epsilon/2 + c |x'|^{1+gamma}`` for ``c = c_top, c_bottom``.

    ``gamma`` in (0, 1) is the Holder exponent of the profile slopes.  The
    envelope constants ``kappa0 |x'|^gamma <= |h'| <= kappa1 |x'|^gamma`` and
    the bound ``kappa2`` on the two profiles' C^{1,gamma} norms follow from
    the amplitudes; a flat side makes ``kappa0 = 0``.
    """

    epsilon: float
    gamma: float
    c_top: float = 1.0
    c_bottom: float = -1.0

    def __post_init__(self):
        if self.epsilon <= 0:
            raise GeometryError(f"epsilon must be positive, got {self.epsilon}")
        if not (0.0 < self.gamma < 1.0):
            raise GeometryError(f"gamma must lie in (0, 1), got {self.gamma}")

    @property
    def kappa0(self) -> float:
        return (1.0 + self.gamma) * min(abs(self.c_top), abs(self.c_bottom))

    @property
    def kappa1(self) -> float:
        return (1.0 + self.gamma) * max(abs(self.c_top), abs(self.c_bottom))

    @property
    def kappa2(self) -> float:
        # sup|h| + sup|h'| + [h']_gamma on the unit ball, per profile; for
        # |x|^{1+gamma} the seminorm of the slope is at most 2(1+gamma)
        g = 1.0 + self.gamma
        return sum(abs(c) * (1.0 + g + 2.0 * g) for c in (self.c_top, self.c_bottom))

    # -- evaluations ----------------------------------------------------------

    def profiles(self, xp, gradient: bool = False) -> tuple:
        """``(h_top, h_bot)`` at tangential points, with ``gradient`` also
        ``(h_top', h_bot')``.

        ``|x'|^{1+gamma}`` is taken once per batch, and with ``gradient``
        ``|x'|^{gamma-1}`` once; the slopes extend by 0 to ``x' = 0``.
        """
        t = _tangential(xp)
        r = abs(t)
        p = r ** (1.0 + self.gamma)
        heights = (self.c_top * p, self.c_bottom * p)
        if not gradient:
            return heights
        with np.errstate(divide="ignore", invalid="ignore"):
            q = r ** (self.gamma - 1.0)
            slopes = tuple(np.where(r > 0, (c * (1.0 + self.gamma)) * q * t, 0.0)
                           for c in (self.c_top, self.c_bottom))
        return heights + slopes

    def top(self, xp) -> np.ndarray:
        """Height of the upper boundary, ``epsilon/2 + h_top(x')``."""
        return 0.5 * self.epsilon + self.profiles(xp)[0]

    def bottom(self, xp) -> np.ndarray:
        """Height of the lower boundary, ``-epsilon/2 + h_bot(x')``."""
        return -0.5 * self.epsilon + self.profiles(xp)[1]

    def gap_width(self, xp) -> np.ndarray:
        """Local gap width ``epsilon + h_top(x') - h_bot(x')``.

        Raises for tangential points outside the unit ball, where the
        profiles are not defined, and where the boundaries cross.  A Python
        float gives a float, evaluated without numpy.
        """
        _in_unit_ball(_tangential(xp))
        h_top, h_bot = self.profiles(xp)
        w = (self.epsilon + h_top) - h_bot
        if _any(w <= 0):
            raise GeometryError("gap width is not positive: boundaries cross")
        return w

    def boundary_point(self, side: str, xp) -> np.ndarray:
        """Point on the upper or lower boundary above/below ``x'``."""
        if side not in ("top", "bottom"):
            raise GeometryError(f"side must be 'top' or 'bottom', got {side!r}")
        t = _tangential(xp)
        _in_unit_ball(t)
        return np.stack([t, self.top(xp) if side == "top" else self.bottom(xp)], axis=-1)

    def midline(self, xp) -> np.ndarray:
        """Vertical midpoint of the gap, ``(top + bottom)/2``."""
        bot, top = _ends(self, xp)
        return 0.5 * (top + bot)

    def least_width(self, radius: float = 1.0) -> float:
        """Least gap width on ``|x'| <= radius``.

        The width is monotone in ``|x'|``, so it is the smaller of the widths
        at ``x' = 0`` and ``|x'| = radius``; nonpositive when the boundaries
        cross inside ``|x'| <= radius``.
        """
        h_top, h_bot = self.profiles(radius)
        return min(self.epsilon, float((self.epsilon + h_top) - h_bot))

    def validate(self) -> None:
        """Raise unless the boundaries keep a positive gap on ``|x'| <= 1``."""
        w = self.least_width()
        if w <= 0:
            raise GeometryError(f"boundaries cross: least gap width {w:.4g} on |x'| <= 1")


@dataclass(frozen=True)
class LocalRegion:
    """Slab of the narrow region around a center: ``|x' - z'| < s`` inside the gap.

    The slab must lie in the unit ball ``|x'| <= 1`` where the profiles are
    defined.
    """

    center: np.ndarray
    radius: float
    geom: GapGeometry

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        if self.radius <= 0:
            raise GeometryError(f"region radius must be positive, got {self.radius}")
        if self.center.shape != (2,):
            raise GeometryError("region center must be a full point (x', x_2)")
        if abs(self.center[0]) + self.radius > 1.0:
            raise GeometryError(f"the slab of radius {self.radius:g} at z' = {self.center[0]:g} "
                                f"leaves the unit ball |x'| <= 1")

    def contains(self, x) -> np.ndarray:
        """Membership test: vertical strip condition plus ``|x' - z'| < radius``."""
        x = np.asarray(x, dtype=float)
        near = np.abs(x[..., 0] - self.center[0]) < self.radius
        if np.any(near):
            bot, top = _ends(self.geom, x[..., :1])
            near = near & (x[..., 1] > bot) & (x[..., 1] < top)
        return near if near.shape else bool(near)

    def sample_points(self, k: int, seed: int, tag: int) -> np.ndarray:
        """``k`` points uniform in the tangential slab, uniform in each fiber.

        Each random variable draws from its own stream seeded by
        ``(seed, tag, variable)``, so a larger ``k`` extends a smaller one
        point for point (prefix-stable sampling); ``tag`` separates the
        streams of independent draws on the same slab.  The profiles are
        evaluated once.
        """
        rng_dir = np.random.default_rng([seed, tag, 1])
        rng_hgt = np.random.default_rng([seed, tag, 3])
        xp = self.center[0] + self.radius * rng_dir.uniform(-1, 1, size=k)
        bot, top = _ends(self.geom, xp)
        xn = bot + rng_hgt.uniform(0, 1, size=k) * (top - bot)
        return np.stack([xp, xn], axis=1)
