"""Coefficient fields of the elliptic system and their sampled validation.

A system with m unknowns in n dimensions has four fields, each ``None`` (zero), an
array of its shape (constant) or a rule from points (k, n) to values (k, ...):

    A(x) : (n, n, m, m)   leading part, indexed [alpha, beta, i, j]
    B(x) : (n, m, m)      lower order inside the divergence, [alpha, i, j]
    C(x) : (n, m, m)      first order outside the divergence, [beta, i, j]
    D(x) : (m, m)         zeroth order, [i, j]

The leading part must satisfy the Legendre (strong ellipticity) condition

    sum A[a,b,i,j] xi_a xi_b eta_i eta_j >= lam |xi|^2 |eta|^2,

which holds in particular for the isotropic elasticity tensor.  Validation
is by sampling: it can falsify a claimed constant, not prove it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np


class EllipticityError(ValueError):
    """Raised when a sampled quadratic form fails to be positive."""


# how far the sampled ellipticity constant may undercut the claimed one
ELLIPTICITY_TOL = 1e-9
Field = Union[np.ndarray, Callable[[np.ndarray], np.ndarray]]


@dataclass(frozen=True)
class LameParameters:
    """Isotropic elasticity constants with the usual positivity requirements."""

    lambda1: float
    mu1: float

    def __post_init__(self):
        if self.mu1 <= 0 or self.lambda1 + self.mu1 <= 0:
            raise EllipticityError(
                f"need mu1 > 0 and lambda1 + mu1 > 0, got ({self.lambda1}, {self.mu1})")


def lame_tensor(p: LameParameters, n: int) -> np.ndarray:
    """Rank-4 isotropic elasticity tensor.

    ``T[i,j,k,l] = lambda1 d_ij d_kl + mu1 (d_ik d_jl + d_il d_jk)`` with the
    full major and minor symmetries.
    """
    d = np.eye(n)
    T = (p.lambda1 * np.einsum("ij,kl->ijkl", d, d)
         + p.mu1 * (np.einsum("ik,jl->ijkl", d, d) + np.einsum("il,jk->ijkl", d, d)))
    return T


def evaluate_field(name: str, field: Optional[Field], X: np.ndarray, shape: tuple) -> np.ndarray:
    """``field`` at each row of X, (k,) + shape; zeros for ``None``.  ValueError, naming
    both shapes, unless an array is exactly ``shape`` and a rule returns (k,) + shape."""
    X = np.asarray(X, dtype=float)
    if field is None:
        return np.zeros((X.shape[0],) + shape)
    want = (X.shape[0],) + shape if callable(field) else shape
    value = np.asarray(field(X) if callable(field) else field, dtype=float)
    if value.shape != want:
        raise ValueError(f"field {name} has shape {value.shape}, expected {want}")
    return value if callable(field) else np.broadcast_to(value, (X.shape[0],) + shape)


@dataclass
class CoefficientSet:
    """Bundle of the four coefficient fields with claimed bounds.

    ``A``, ``B``, ``Cc`` and ``D`` are each ``None`` (zero), an array of
    exactly the field's shape in the module docstring (constant), or a rule
    mapping points (k, n) to values (k, ...) of that shape (variable).
    ``lam`` is the claimed ellipticity constant, ``kappa3`` the claimed
    Holder-norm bound of all fields, and ``gamma`` the Holder exponent.
    """

    m: int
    n: int
    A: Field
    B: Optional[Field]
    Cc: Optional[Field]
    D: Optional[Field]
    lam: float
    kappa3: float
    gamma: float = 0.5
    name: str = "custom"

    def eval_A_many(self, X: np.ndarray) -> np.ndarray:
        """A at each row of X, shape (k, n, n, m, m)."""
        return evaluate_field("A", self.A, X, (self.n, self.n, self.m, self.m))

    def eval_B_many(self, X: np.ndarray) -> np.ndarray:
        return evaluate_field("B", self.B, X, (self.n, self.m, self.m))

    def eval_C_many(self, X: np.ndarray) -> np.ndarray:
        return evaluate_field("Cc", self.Cc, X, (self.n, self.m, self.m))

    def eval_D_many(self, X: np.ndarray) -> np.ndarray:
        return evaluate_field("D", self.D, X, (self.m, self.m))

    def is_zero_lower_order(self) -> bool:
        """True when B, C and D are all declared zero (``None``)."""
        return self.B is None and self.Cc is None and self.D is None


def identity_coefficients(m: int = 1, n: int = 2) -> CoefficientSet:
    """Decoupled Laplace blocks: ``A[a,b,i,j] = d_ab d_ij``, no lower order."""
    A0 = np.einsum("ab,ij->abij", np.eye(n), np.eye(m))
    return CoefficientSet(m=m, n=n, A=A0, B=None, Cc=None, D=None,
                          lam=1.0, kappa3=float(m * n), gamma=0.5, name="identity")


def lame_as_general(p: LameParameters, n: int) -> CoefficientSet:
    """Isotropic elasticity written in the general-system form.

    The leading field is ``A[alpha,beta,i,j] = T[i,alpha,j,beta]`` with T the
    elasticity tensor; B, C, D vanish.  On rank-one directions the quadratic
    form equals ``mu1 |xi|^2 |eta|^2 + (lambda1+mu1) (xi.eta)^2``, so the
    ellipticity constant is ``mu1``.
    """
    T = lame_tensor(p, n)
    A0 = np.ascontiguousarray(np.transpose(T, (1, 3, 0, 2)))  # [alpha,beta,i,j] = T[i,alpha,j,beta]
    # a constant field's Holder norm is its sup
    return CoefficientSet(m=n, n=n, A=A0, B=None, Cc=None, D=None,
                          lam=p.mu1, kappa3=float(np.max(np.abs(A0))), gamma=0.5,
                          name=f"lame({p.lambda1},{p.mu1})")


def holder_demo_coefficients(gamma: float, m: int = 1, n: int = 2) -> CoefficientSet:
    """Variable-coefficient demo field ``A = (1 + |x|^gamma / 2) I``.

    Not a physical model: a minimal non-smooth field exercising the
    Holder-norm checks and variable-coefficient assembly.
    """
    eye = np.einsum("ab,ij->abij", np.eye(n), np.eye(m))

    def A(X):
        # vecdot's sqrt matches np.linalg.norm of each row bit for bit
        return (1.0 + 0.5 * np.sqrt(np.vecdot(X, X)) ** gamma)[:, None, None, None, None] * eye

    # sup of the scalar factor on the unit region is 1.5; quotient of |x|^gamma is 1
    return CoefficientSet(m=m, n=n, A=A, B=None, Cc=None, D=None,
                          lam=1.0, kappa3=2.0 + float(m * n), gamma=gamma,
                          name="holder_demo")


@dataclass(frozen=True)
class EllipticityMeasurement:
    """Sampled minimum of the rank-one quadratic form, with near-tie count."""

    value: float
    near_ties: int


def _unit_directions(k: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """k quasi-random unit vectors in R^d plus the coordinate axes."""
    v = rng.normal(size=(k, d))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return np.concatenate([np.eye(d), -np.eye(d), v])


def check_ellipticity(cs: CoefficientSet, samples: int = 10_000,
                      points: Optional[np.ndarray] = None,
                      seed: int = 0) -> EllipticityMeasurement:
    """Sampled ellipticity constant of the leading field.

    Minimizes ``sum A[a,b,i,j] xi_a xi_b eta_i eta_j`` over sampled points
    and unit directions (random plus coordinate axes).  Raises
    :class:`EllipticityError` when the sampled minimum is not positive, and
    when it undercuts the claimed constant by more than ``ELLIPTICITY_TOL``.
    Ties within 1e-9 of the minimum are counted, not broken.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    if points is None:
        points = rng.uniform(-1, 1, size=(64, cs.n)) if callable(cs.A) else np.zeros((1, cs.n))
    points = np.atleast_2d(np.asarray(points, dtype=float))
    ndir = max(8, int(np.sqrt(samples)))
    xis = _unit_directions(ndir, cs.n, rng)
    etas = _unit_directions(ndir, cs.m, rng)
    Amany = cs.eval_A_many(points)                      # (k, n, n, m, m)
    # values[p, a, e] = form at point p, direction pair (xi_a, eta_e)
    vals = np.einsum("pabij,xa,xb,yi,yj->pxy", Amany, xis, xis, etas, etas, optimize=True)
    value = float(np.min(vals))
    near = int(np.count_nonzero(vals <= value + 1e-9 * max(1.0, abs(value)))) - 1
    if value <= 0.0:
        raise EllipticityError(f"sampled ellipticity constant {value:.3e} is not positive")
    if value < cs.lam - ELLIPTICITY_TOL:
        raise EllipticityError(
            f"sampled ellipticity constant {value:.6g} undercuts the claimed {cs.lam:.6g}")
    return EllipticityMeasurement(value=value, near_ties=near)


def check_holder(cs: CoefficientSet, pair_samples: int = 10_000,
                 points: Optional[np.ndarray] = None, seed: int = 0) -> float:
    """Sampled Holder norm of the coefficient fields.

    Over ``pair_samples`` point pairs, returns the largest
    ``sup |f| + max_pairs |f(x)-f(y)| / |x-y|^gamma`` over every scalar
    component field of A, B, C, D.  Sampling from below: the true norm is at
    least the returned value.
    """
    if pair_samples < 1:
        raise ValueError("pair_samples must be >= 1")
    rng = np.random.default_rng(seed)
    if points is None:
        points = rng.uniform(-1, 1, size=(max(64, int(np.sqrt(pair_samples)) + 1), cs.n))
    points = np.atleast_2d(np.asarray(points, dtype=float))
    k = points.shape[0]
    ii = rng.integers(0, k, size=pair_samples)
    jj = rng.integers(0, k, size=pair_samples)
    keep = ii != jj
    ii, jj = ii[keep], jj[keep]
    scale = np.linalg.norm(points[ii] - points[jj], axis=1)[:, None] ** cs.gamma
    worst = 0.0
    for evaluate in (cs.eval_A_many, cs.eval_B_many, cs.eval_C_many, cs.eval_D_many):
        vals = evaluate(points).reshape(k, -1)
        quot = np.abs(vals[ii] - vals[jj]) / scale             # (pairs, ncomp)
        worst = max(worst, float(np.max(np.abs(vals), initial=0.0))
                    + float(np.max(quot, initial=0.0)))
    return worst
