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
Every method takes ``x'`` as a Python float, evaluated without numpy, or as
an array of shape (k,); an array with more axes raises.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class GeometryError(ValueError):
    """Raised when a geometric precondition or invariant fails."""


def _tangential(xp):
    """A tangential coordinate ``x'``: a Python float stays a float, anything
    else becomes a float array of at most one axis (k,); more axes raise."""
    if isinstance(xp, float):
        return xp
    a = np.asarray(xp, dtype=float)
    if a.ndim > 1:
        raise GeometryError(f"tangential coordinates x' are a float or shape (k,), "
                            f"got shape {a.shape}")
    return a


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
        ``|x'|^{gamma-1}`` once; the slopes extend by 0 to ``x' = 0``.  With
        ``gradient`` an array batch is evaluated in place: the four results
        are its only row-sized arrays, besides a mask where some x' is 0.
        """
        t = _tangential(xp)
        r = abs(t)
        p = r ** (1.0 + self.gamma)
        if not gradient:
            return self.c_top * p, self.c_bottom * p
        if np.ndim(t) == 0:
            return (self.c_top * p, self.c_bottom * p) + tuple(
                (c * (1.0 + self.gamma)) * r ** (self.gamma - 1.0) * t if r > 0 else 0.0
                for c in (self.c_top, self.c_bottom))
        h_top = self.c_top * p
        h_bot = np.multiply(p, self.c_bottom, out=p)
        at_zero = None if r.size and r.min() > 0 else ~(r > 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            q = np.power(r, self.gamma - 1.0, out=r)
            d_top = (self.c_top * (1.0 + self.gamma)) * q
            d_top *= t
            d_bot = np.multiply(q, self.c_bottom * (1.0 + self.gamma), out=q)
            d_bot *= t
        if at_zero is not None:
            d_top[at_zero] = d_bot[at_zero] = 0.0
        return h_top, h_bot, d_top, d_bot

    def top(self, xp) -> np.ndarray:
        """Height of the upper boundary, ``epsilon/2 + h_top(x')``."""
        return 0.5 * self.epsilon + self.profiles(xp)[0]

    def bottom(self, xp) -> np.ndarray:
        """Height of the lower boundary, ``-epsilon/2 + h_bot(x')``."""
        return -0.5 * self.epsilon + self.profiles(xp)[1]

    def gap_width(self, xp) -> np.ndarray:
        """Local gap width ``epsilon + h_top(x') - h_bot(x')``.

        Raises for tangential points outside the unit ball, where the
        profiles are not defined, and where the boundaries cross.
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
            bot, top = _ends(self.geom, x[..., 0])
            near = near & (x[..., 1] > bot) & (x[..., 1] < top)
        return near if near.shape else bool(near)

    def sample_points(self, k: int, seed: int, tag: int) -> np.ndarray:
        """``k`` points uniform in the tangential slab, uniform in each fiber.

        Each random variable draws from its own stream seeded by
        ``(seed, tag, variable)``, so a larger ``k`` extends a smaller one
        point for point (prefix-stable sampling); ``tag`` separates the
        streams of independent draws on the same slab.  The streams do not
        depend on the slab, only :meth:`place` does: ``holder_seminorm``
        draws its streams once per (pairs, seed) and places them on every
        slab, which gives these points and keeps their prefix stability.
        """
        return self.place(*_unit_draws(k, seed, tag))

    def place(self, tangential: np.ndarray, height: np.ndarray) -> np.ndarray:
        """Points (k, 2) at unit draws: ``x' = z' + radius * tangential`` for
        ``tangential`` in [-1, 1) and ``bottom + height * (top - bottom)`` in
        each fiber for ``height`` in [0, 1), one profile pass."""
        xp = self.center[0] + self.radius * tangential
        bot, top = _ends(self.geom, xp)
        xn = bot + height * (top - bot)
        return np.stack([xp, xn], axis=1)


def _unit_draws(k: int, seed: int, tag: int) -> tuple:
    """The two unit streams of :meth:`LocalRegion.sample_points`, (k,) each:
    uniform in [-1, 1) from ``(seed, tag, 1)`` and in [0, 1) from ``(seed, tag, 3)``."""
    return (np.random.default_rng([seed, tag, 1]).uniform(-1, 1, size=k),
            np.random.default_rng([seed, tag, 3]).uniform(0, 1, size=k))
