"""Experiment harness: gap sweeps, blow-up rates, envelope and energy checks.

The measurable claims are:

* the gradient magnitude on the centerline grows like ``1/epsilon`` when the
  boundary data jump across the gap (matching upper and lower bounds), and
  stays bounded when the data agree;
* the profile ``|grad u|(x')`` is enveloped by
  ``C (jump(x') / (epsilon + |x'|^{1+gamma}) + norm terms)`` with a constant
  that does not drift as the gap closes;
* the squared-gradient energy of the remainder (solution minus data
  extension) over slabs of width equal to the local gap obeys power laws in
  ``epsilon`` at the neck and in ``|z'|`` away from it.

Constants are measured, not assumed: each check fits the smallest constant
over a sweep and tests its stability.
"""

from __future__ import annotations

import math
import operator
from dataclasses import asdict, astuple, dataclass
from typing import Optional, Sequence

import numpy as np

from .auxiliary import (BoundaryData, check_seminorm_growth, field_gradients, field_values,
                        holder_seminorm)
from .coefficients import (CoefficientSet, EllipticityError, LameParameters, check_ellipticity,
                           check_holder, holder_demo_coefficients, identity_coefficients,
                           lame_as_general)
from .geometry import GapGeometry, LocalRegion
from .mesh import MeshError, centroid_x, generate, grade, with_midpoints
from .oracle import AffineCase, brute_force_seminorm, finite_difference_reference
from .solver import (MAX_BAND_BYTES, AssembledSystem, assemble, band_bytes, dirichlet_values,
                     gradient_at, grid_distance, l2_norm, solve_dirichlet)


class PlanError(ValueError):
    """Raised for sweep plans that cannot support the requested fits."""


# ---------------------------------------------------------------------------
# rate fitting
# ---------------------------------------------------------------------------

def fit_rate(pairs: Sequence[tuple]):
    """Log-log least squares: returns (slope, 95% confidence half-width).

    Requires at least 3 pairs of positive (scale, value) with at least two
    distinct scales; the half-width is the Student-t interval from the
    residual variance, zero for exactly log-linear data.
    """
    pts = [(float(s), float(v)) for s, v in pairs]
    if len(pts) < 3:
        raise PlanError(f"rate fitting needs >= 3 pairs, got {len(pts)}")
    if any(s <= 0 or v <= 0 for s, v in pts):
        raise PlanError("rate fitting needs positive scales and values")
    x = np.log([s for s, _ in pts])
    y = np.log([v for _, v in pts])
    n = x.size
    xm, ym = x.mean(), y.mean()
    sxx = float(np.sum((x - xm) ** 2))
    if sxx == 0.0:
        raise PlanError("rate fitting needs at least two distinct scales")
    slope = float(np.sum((x - xm) * (y - ym)) / sxx)
    resid = y - (ym + slope * (x - xm))
    var = float(np.sum(resid**2)) / (n - 2)
    se = math.sqrt(var / sxx)
    return slope, t_quantile(n - 2, 0.975) * se


def _t_central(t: float, df: int) -> float:
    """P(|T| <= t), t >= 0, for Student's t with integer ``df`` >= 1.

    The closed forms of Abramowitz & Stegun 26.7.3 (odd ``df``) and 26.7.4
    (even), sums of powers of cos^2 = df / (df + t^2).  Each power is taken
    as exp(k log cos^2) with the logarithm from ``log1p``, so the rounding
    of cos^2 is not raised to the k-th power, and the terms are summed
    exactly (``math.fsum``).
    """
    log_c2 = -math.log1p(t * t / df)
    s = t / math.sqrt(df + t * t)                # sin of atan(t / sqrt(df))
    terms, coef = [], 1.0
    if df % 2 == 0:
        for k in range(df // 2):
            terms.append(coef * math.exp(k * log_c2))
            coef *= (2 * k + 1) / (2 * k + 2)
        return s * math.fsum(terms)
    for k in range((df - 1) // 2):
        terms.append(coef * math.exp((k + 0.5) * log_c2))
        coef *= (2 * k + 2) / (2 * k + 3)
    return 2 / math.pi * (math.atan2(t, math.sqrt(df)) + s * math.fsum(terms))


def t_quantile(df: int, p: float) -> float:
    """Quantile of Student's t with integer ``df`` >= 1 at probability ``p`` in (0.5, 1).

    Bisection on :func:`_t_central` down to adjacent floats; for df 1-200 at
    p = 0.975 it is within 1.2e-15 relative of the quantile computed in
    40-digit arithmetic.
    """
    target = 2 * p - 1
    lo, hi = 0.0, 1.0
    while _t_central(hi, df) < target:
        lo, hi = hi, 2 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return hi
        if _t_central(mid, df) < target:
            lo = mid
        else:
            hi = mid


# ---------------------------------------------------------------------------
# sweep plan and builders
# ---------------------------------------------------------------------------

# the midline probes lie on |x'| <= PROBE_HALF_SPAN, so mesh.xrange must reach it
PROBE_HALF_SPAN = 0.5
# probe sites: points on the centerline, points on the midline, and the centerline's
# distance from each boundary in gap widths
PROBES_CENTERLINE = 33
PROBES_PROFILE = 65
PROBE_OFFSET = 0.05
# bound on |system.lambda1| and system.mu1, 1e50 below the first overflow: norms
# overflow from 1e150 on, oracle-suite's grid solve fails from 1e163, solve from 1e169
LAME_MAX = 1e100
# largest prop21.pairs: prop21 peaks at 61 MiB (ru_maxrss) with 10^5 pairs, 270 MiB
# with 10^6 and 528 MiB with 2*10^6, under solver.MAX_BAND_BYTES (1 GiB)
MAX_SAMPLES = 2_000_000
# largest system.m: prop21 samples one component whatever m is (528 MiB at MAX_SAMPLES
# pairs, ru_maxrss, at m = 2 and m = 4); the other commands peak below 64 MiB at m = 4
MAX_COMPONENTS = 4
# bound on |bc.phi| and |bc.psi| entries, 1e52 below the first failure: sweep, prop21 and
# oracle-suite write null from 1e152, solve from 1e154, and the solves fail at 1e300
BC_MAX = 1e100
_VANISHES = "component 0's extension gradient vanishes"     # why a seminorm check is n/a


def config_key(name: str) -> str:
    """The config key of a :class:`SweepPlan` field: the name, first ``_`` turned into ``.``."""
    return name.replace("_", ".", 1)


def _bad_value(key: str, value, reason: str) -> PlanError:
    shown = f"{value:g}" if isinstance(value, float) else value
    return PlanError(f"bad value for {key!r}: '{shown}' ({reason})")


@dataclass(frozen=True)
class SweepPlan:
    """The whole config of every command, seed included: one field per config key.
    Frozen, and validated when built, by ``dataclasses.replace`` too."""

    epsilon: float = 1e-2           # single-run gap width (solve, validate-*, oracle-suite)
    sweep_epsilons: tuple = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3)
    gamma: float = 0.5
    profile_c1: float = 1.0
    profile_c2: float = -1.0
    system_kind: str = "lame"
    system_lambda1: float = 1.0
    system_mu1: float = 1.0
    system_m: int = 1               # components for the identity system
    bc_kind: str = "constant_jump"
    bc_phi: tuple = (1.0, 0.0)
    bc_psi: tuple = (0.0, 0.0)
    mesh_layers: int = 12
    mesh_aspect: float = 2.0
    mesh_dxmax: float = 0.02
    mesh_xrange: float = 1.0
    energy_aspect: float = 0.25
    energy_layers: int = 16
    energy_xrange: float = 0.75
    energy_zprimes: tuple = (0.04, 0.0566, 0.08, 0.1131, 0.16)
    reliability_threshold: float = 0.10
    prop21_pairs: int = 2000
    checks_stability_factor: float = 3.0
    checks_exponent_band: float = 0.2
    seed: int = 0

    def __post_init__(self):
        self.validate()

    def validate(self):
        """Raise a :class:`PlanError` for a key out of range or keys that contradict
        each other.  What needs the geometry (crossing boundaries, slabs, mesh
        size) is checked where that is built, before anything is solved.
        """
        if self.epsilon <= 0:
            raise _bad_value("epsilon", self.epsilon, "must be positive")
        eps = tuple(float(e) for e in self.sweep_epsilons)
        if any(e <= 0 for e in eps):
            raise PlanError("epsilon values must be positive")
        if list(eps) != sorted(eps, reverse=True) or len(set(eps)) != len(eps):
            raise PlanError("epsilon values must be strictly decreasing")
        if len(eps) < 3:
            raise PlanError("need at least 3 epsilon values for rate fitting")
        zs = tuple(float(z) for z in self.energy_zprimes)
        if any(z <= 0 for z in zs) or len(set(zs)) != len(zs):
            raise PlanError("energy z' values must be positive and distinct")
        if not (0 < self.gamma < 1):
            raise PlanError(f"gamma must lie in (0, 1), got {self.gamma}")
        if self.system_kind == "custom":
            raise PlanError("system.kind 'custom' requires supplying coefficient rules "
                            "through the Python API, not the flat config")
        if self.system_kind not in ("lame", "identity", "holder_demo"):
            raise PlanError(f"unknown system kind {self.system_kind!r}")
        if self.bc_kind not in ("constant_jump", "polynomial"):
            raise PlanError(f"unknown bc kind {self.bc_kind!r}")
        if self.bc_kind == "polynomial" and not (self.bc_phi and self.bc_psi):
            raise PlanError(f"bc.kind = polynomial needs at least one coefficient in bc.phi "
                            f"and in bc.psi, got bc.phi = {list(self.bc_phi)}, "
                            f"bc.psi = {list(self.bc_psi)}")
        if self.system_kind == "lame":
            self.lame()
        for key, v in [("bc.phi", v) for v in self.bc_phi] + [("bc.psi", v) for v in self.bc_psi]:
            if not abs(v) <= BC_MAX:
                raise _bad_value(key, v, f"entries must be <= {BC_MAX:g} in magnitude")
        if self.system_m < 1:
            raise PlanError(f"system.m must be >= 1, got {self.system_m}")
        if self.system_m > MAX_COMPONENTS:
            raise _bad_value("system.m", self.system_m, f"must be <= {MAX_COMPONENTS}")
        for key, layers, aspect, xrange in (
                ("mesh", self.mesh_layers, self.mesh_aspect, self.mesh_xrange),
                ("energy", self.energy_layers, self.energy_aspect, self.energy_xrange)):
            if layers < 4:
                raise PlanError(f"{key}.layers must be >= 4, got {layers}")
            if not 0 < xrange <= 1:
                raise PlanError(f"{key}.xrange must lie in (0, 1], got {xrange}")
            if aspect <= 0:
                raise PlanError(f"{key}.aspect must be positive, got {aspect}")
        if self.mesh_xrange < PROBE_HALF_SPAN:
            raise PlanError(f"mesh.xrange must be >= {PROBE_HALF_SPAN}, the half-span of the "
                            f"midline probes, got {self.mesh_xrange}")
        if self.mesh_dxmax <= 0:
            raise PlanError(f"mesh.dxmax must be positive, got {self.mesh_dxmax}")
        if self.reliability_threshold <= 0:
            raise PlanError(f"reliability.threshold must be positive, got "
                            f"{self.reliability_threshold}")
        if not 1 <= self.prop21_pairs <= MAX_SAMPLES:
            raise _bad_value("prop21.pairs", self.prop21_pairs, "must be >= 1"
                             if self.prop21_pairs < 1 else f"must be <= {MAX_SAMPLES}")
        if self.checks_stability_factor <= 1:
            raise _bad_value("checks.stability_factor", self.checks_stability_factor,
                             "must be > 1: a max/min ratio is never below 1")
        if self.checks_exponent_band <= 0:
            raise _bad_value("checks.exponent_band", self.checks_exponent_band,
                             "must be positive")
        if self.seed < 0:
            raise _bad_value("seed", self.seed, "must be >= 0")

    def geometry(self, epsilon: float) -> GapGeometry:
        """The power-law gap; zero amplitudes give the flat strip."""
        return GapGeometry(epsilon, self.gamma, self.profile_c1, self.profile_c2)

    def lame(self) -> LameParameters:
        """The Lame constants ``system.lambda1`` and ``system.mu1``."""
        lam, mu = self.system_lambda1, self.system_mu1
        if not (abs(lam) <= LAME_MAX and mu <= LAME_MAX):
            raise PlanError(f"system.lambda1 and system.mu1: need |lambda1| and mu1 <= "
                            f"{LAME_MAX:g}, got ({lam}, {mu})")
        try:
            return LameParameters(lam, mu)
        except EllipticityError as exc:
            raise PlanError(f"system.lambda1 and system.mu1: {exc}") from None

    def coefficients(self) -> CoefficientSet:
        if self.system_kind == "lame":
            return lame_as_general(self.lame())
        if self.system_kind == "identity":
            return identity_coefficients(m=self.system_m)
        return holder_demo_coefficients(self.gamma, m=self.system_m)

    def boundary_data(self, geom: GapGeometry) -> BoundaryData:
        m = 2 if self.system_kind == "lame" else self.system_m     # coefficients().m
        if self.bc_kind == "constant_jump":
            return BoundaryData.constant(_pad(self.bc_phi, m), _pad(self.bc_psi, m))
        # polynomial data: the given coefficients act on component 0
        phi = [list(self.bc_phi)] + [[0.0]] * (m - 1)
        psi = [list(self.bc_psi)] + [[0.0]] * (m - 1)
        return BoundaryData.polynomial(phi, psi, geom)

    def _mesh_keys(self, energy: bool = False) -> tuple:
        """Key family, layers, aspect and xrange of the sweep or (``energy``) energy mesh."""
        return (("energy", self.energy_layers, self.energy_aspect, self.energy_xrange) if energy
                else ("mesh", self.mesh_layers, self.mesh_aspect, self.mesh_xrange))

    def _refuse_crossing(self, epsilon: float, energy: bool = False) -> None:
        """Raise a :class:`PlanError` naming the profile amplitudes when the
        boundaries cross inside the meshed strip (``energy``: the energy
        mesh's); the width is monotone in ``|x'|``, so the strip's edge decides.
        """
        key, _, _, xrange = self._mesh_keys(energy)
        least = self.geometry(epsilon).least_width(xrange)
        if least <= 0:
            raise PlanError(f"profile.c1 = {self.profile_c1:g} and profile.c2 = "
                            f"{self.profile_c2:g} at epsilon = {epsilon:g}: the boundaries "
                            f"cross inside |x'| <= {key}.xrange = {xrange:g} (least gap "
                            f"width {least:.4g})")

    def _levels(self, epsilon: float, stations: np.ndarray, layers: int) -> list:
        """The meshes the sweep solves at ``epsilon``, as (name, stations, layers),
        from its mesh's ``stations`` and ``layers``: the mesh, its stations level
        (midpoint stations) at every epsilon, and its layers level (doubled
        layers) at the plan's largest epsilon."""
        levels = [("mesh", stations, layers), ("stations", with_midpoints(stations), layers)]
        if epsilon >= max(self.sweep_epsilons):
            levels.append(("layers", stations, 2 * layers))
        return levels

    def problem(self, epsilon: float, energy: bool = False, refinement: bool = False
                ) -> tuple[GapGeometry, BoundaryData, AssembledSystem]:
        """Geometry, boundary data and assembled system at one gap width.

        The mesh is the sweep mesh (``mesh.*`` keys), or with ``energy`` the
        energy-scaling mesh (``energy.layers``, ``energy.aspect``,
        ``energy.xrange`` with ``mesh.dxmax``); its stations are graded once.
        Boundaries that cross inside the meshed strip raise a
        :class:`PlanError` (:meth:`_refuse_crossing`).  After that a
        :class:`MeshError` can only come from the grading keys, so it is raised
        as a :class:`PlanError` that names them.  So is a mesh whose band and
        element matrices (``solver.band_bytes``), or with ``refinement`` those
        of a refined level the sweep builds (:meth:`_levels`), would exceed
        ``MAX_BAND_BYTES``: the check reads the graded stations before any mesh
        is built and names the level.
        """
        self._refuse_crossing(epsilon, energy)
        geom = self.geometry(epsilon)
        data = self.boundary_data(geom)
        key, layers, aspect, xrange = self._mesh_keys(energy)
        try:
            stations = grade(geom, aspect, self.mesh_dxmax, xrange)
        except MeshError as exc:
            raise PlanError(f"{key}.aspect and mesh.dxmax at epsilon = {epsilon:g}: "
                            f"{exc}") from None
        cs = self.coefficients()
        levels = self._levels(epsilon, stations, layers)
        # the refined levels are never smaller than the mesh: midpoints double its stations
        for name, s, L in levels[1:] if refinement else levels[:1]:
            band, elements = band_bytes(s.size, L, cs.m)
            if band + elements > MAX_BAND_BYTES:
                raise PlanError(
                    f"{key}.layers, {key}.aspect and mesh.dxmax at epsilon = {epsilon:g}: "
                    f"the {'refined ' if refinement else ''}mesh's {s.size} stations of "
                    f"{L} layers{f' ({name} level)' if refinement else ''} need a "
                    f"{band / 2**20:.0f} MiB band and {elements / 2**20:.0f} MiB of element "
                    f"matrices, more than the {MAX_BAND_BYTES / 2**20:.0f} MiB budget")
        return geom, data, assemble(generate(geom, stations, layers), cs)


def max_over_min(values) -> float:
    """Spread ``max / min`` of positive values; infinite when the minimum is not positive."""
    lo, hi = min(values), max(values)
    return float(hi / lo) if lo > 0 else float("inf")


_RELATIONS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
              "==": operator.eq, "in": lambda v, b: b[0] <= v <= b[1]}


@dataclass(frozen=True)
class Check:
    """One verdict: ``value relation bound``, the relation one of ``_RELATIONS``
    (``in``: a closed interval ``(lo, hi)``).  A None value does not apply
    (n/a); a non-finite one fails.  ``quantity`` names the value in the reason,
    and ``note``, when given, says why an n/a value was not measured.
    """

    name: str
    value: Optional[float]
    relation: str
    bound: float | tuple
    quantity: str
    note: str = ""

    @property
    def verdict(self) -> str:
        if self.value is None:
            return "n/a"
        ok = math.isfinite(self.value) and _RELATIONS[self.relation](self.value, self.bound)
        return "pass" if ok else "fail"

    def reason(self) -> str:
        """E.g. ``max/min 1.213 < 3``, ``max/min 8.137, not < 3``."""
        bound = (f"[{self.bound[0]:.4g}, {self.bound[1]:.4g}]" if self.relation == "in"
                 else f"{self.bound:.4g}")
        if self.value is None:
            why = f" ({self.note})" if self.note else ""
            return f"{self.quantity} not measured{why}, bound {self.relation} {bound}"
        sep = " " if self.verdict == "pass" else ", not "
        return f"{self.quantity} {self.value:.4g}{sep}{self.relation} {bound}"

    def to_dict(self) -> dict:
        out = ({"value": self.value} if self.value is not None
               else {"note": self.note} if self.note else {})
        return {**out, "relation": self.relation, "bound": self.bound}


def check_block(checks: Sequence[Check]) -> dict:
    """Each check's record under ``checks`` and its verdict under ``verdicts``."""
    return {"checks": {c.name: c.to_dict() for c in checks},
            "verdicts": {c.name: c.verdict for c in checks}}


def _pad(values, m):
    """Per-component constants: missing components are zero, extra ones must be."""
    v = list(float(x) for x in values)
    if any(x != 0.0 for x in v[m:]):
        raise PlanError(f"boundary constants {v} have nonzero entries beyond the "
                        f"system's {m} components")
    return v[:m] + [0.0] * (m - len(v))


# ---------------------------------------------------------------------------
# the sweep: probes, the per-epsilon pipeline and the driver
# ---------------------------------------------------------------------------

def _frob(mat: np.ndarray) -> np.ndarray:
    """Frobenius norm of the trailing (m, 2) matrix, for one or a stack."""
    return np.sqrt(np.sum(mat * mat, axis=(-2, -1)))


def probe_points(geom: GapGeometry) -> np.ndarray:
    """Probe sites, (k, 2): ``PROBES_CENTERLINE`` rows ``(0, xn)``, then midline rows.

    The centerline stays ``PROBE_OFFSET`` gap widths inside each boundary;
    the ``PROBES_PROFILE`` midline rows ``(xp, mid(xp))`` span
    ``|xp| <= PROBE_HALF_SPAN``.
    """
    off = PROBE_OFFSET * geom.gap_width(0.0)
    xn = np.linspace(geom.bottom(0.0) + off, geom.top(0.0) - off, PROBES_CENTERLINE)
    xp = np.linspace(-PROBE_HALF_SPAN, PROBE_HALF_SPAN, PROBES_PROFILE)
    return np.concatenate([np.stack([np.zeros_like(xn), xn], axis=1),
                           np.stack([xp, geom.midline(xp)], axis=1)])


def _refined_neck(fine, cs, data, M: float) -> tuple[float, float]:
    """Neck value on ``fine`` and its relative drift from ``M``."""
    sol = solve_dirichlet(assemble(fine, cs), dirichlet_values(fine, data))
    M_f = float(_frob(gradient_at(sol, (0.0, 0.0))))
    return M_f, abs(M - M_f) / max(abs(M_f), 1e-300)


def _run_one_epsilon(plan: SweepPlan, epsilon: float):
    """The layers level (at the plan's largest epsilon, else None) and the
    ``per_epsilon`` record of ``report.json``."""
    geom, data, system = plan.problem(epsilon, refinement=True)
    sol = solve_dirichlet(system, dirichlet_values(system.mesh, data))
    mesh, cs = system.mesh, system.cs
    del system          # release the factorization before the refined levels are built

    M = float(_frob(gradient_at(sol, (0.0, 0.0))))
    # one level at a time: _refined_neck frees each system before the next mesh
    refined = {name: (L, *_refined_neck(generate(geom, s, L), cs, data, M))
               for name, s, L in plan._levels(epsilon, mesh.stations, mesh.layers)[1:]}
    _, M_fine, change = refined["stations"]
    layers = None
    if "layers" in refined:
        L, M_layers, layers_change = refined["layers"]
        layers = {"epsilon": epsilon, "layers": L, "M_center": M_layers,
                  "reliability_change": layers_change}

    pts = probe_points(geom)
    k = PROBES_CENTERLINE
    norms = _frob(gradient_at(sol, pts))
    cl, xp, pf = norms[:k], pts[k:, 0], norms[k:]
    jumps = np.linalg.norm(data.jump(xp), axis=1)
    u2 = l2_norm(sol)
    norm_terms = float(np.max(data.phi_norms) + np.max(data.psi_norms) + u2)

    # envelope constants: solve the displayed bounds for their constants
    denom_profile = jumps / (epsilon + np.abs(xp) ** (1 + plan.gamma)) + norm_terms
    C_profile = float(np.max(pf / denom_profile))
    jump0 = data.jump(0.0)
    denom_center = float(np.linalg.norm(jump0)) / epsilon + norm_terms
    C_upper = max(C_profile, float(np.max(cl)) / denom_center)
    max_comp = float(np.max(np.abs(jump0)))
    C_lower = None
    if max_comp > 1e-14 * max(1.0, norm_terms):
        C_lower = float(np.min(cl)) * epsilon / max_comp

    finite = np.isfinite(M) and np.all(np.isfinite(norms))
    return layers, {
        "epsilon": epsilon, "M_center": M,
        "centerline_sup": float(np.max(cl)), "centerline_min": float(np.min(cl)),
        "u_l2": u2, "norm_terms": norm_terms,
        "C_upper": C_upper, "C_lower": C_lower, "C_profile": C_profile,
        "M_center_refined": M_fine, "reliability_change": change,
        "flags": [] if finite else ["nonfinite"],
        "centerline": np.stack([pts[:k, 1], cl], axis=1).tolist(),
        "profile": np.stack([xp, pf], axis=1).tolist(),
    }


def run_sweep(plan: SweepPlan, threads: int = 1) -> tuple[dict, list[Check]]:
    """``sweep``: solve, probe and fit across the plan's gap widths; returns
    the body of ``report.json`` and its checks.

    Each epsilon solves on the sweep mesh and on its stations level (midpoint
    stations: along the gap, where the error lies); the largest also on its
    layers level (doubled layers), reported as ``layers_level``.  Every level
    is ``generate``d from the stations graded once per epsilon
    (:meth:`SweepPlan._levels`), after the previous level's system is freed.
    With ``threads > 1`` the epsilons run in a thread pool whose ``map`` keeps
    plan order, so the report does not depend on completion order.

    The checks: the envelope and lower-bound constants vary by less than
    ``checks.stability_factor`` (the lower bound is n/a for data without a
    jump at x' = 0), and every refinement drift is below
    ``reliability.threshold``.  On ``degenerate`` data (no neck gradient: the
    solution is constant up to roundoff) every check is n/a, because those
    spreads and drifts are ratios of roundoff.
    """
    if not any(plan.bc_phi) and not any(plan.bc_psi):
        raise PlanError("bc.phi and bc.psi are all zero: the solution vanishes and "
                        "the sweep has no envelope constant to fit")
    eps = [float(e) for e in plan.sweep_epsilons]
    plan._refuse_crossing(eps[-1])      # the smallest epsilon has the narrowest gap
    if threads > 1:
        # imported here: concurrent.futures brings logging, and only this branch needs it
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(lambda e: _run_one_epsilon(plan, e), eps))
    else:
        results = [_run_one_epsilon(plan, e) for e in eps]
    layers_level, records = results[0][0], [r for _, r in results]

    scale = max(1.0, max(r["norm_terms"] for r in records))
    degenerate = max(r["M_center"] for r in records) <= 1e-8 * scale
    rho, half = 0.0, 0.0
    if not degenerate:
        slope, half = fit_rate([(r["epsilon"], r["M_center"]) for r in records])
        rho = -slope
    doc = {"plan": {config_key(k): v for k, v in asdict(plan).items()},
           "fit": {"rho": rho, "rho_halfwidth": half, "degenerate": degenerate},
           "per_epsilon": records, "layers_level": layers_level}
    factor = plan.checks_stability_factor
    lower = [r["C_lower"] for r in records]
    drifts = [r["reliability_change"] for r in records] + [layers_level["reliability_change"]]
    return doc, [
        Check("profile", None if degenerate else max_over_min([r["C_profile"] for r in records]),
              "<", factor, "max/min"),
        Check("lower_bound", None if degenerate or None in lower else max_over_min(lower), "<",
              factor, "max/min"),
        Check("reliability", None if degenerate else float(np.max(drifts)), "<",
              plan.reliability_threshold, "worst refinement drift"),
    ]


# ---------------------------------------------------------------------------
# energy scaling of the remainder
# ---------------------------------------------------------------------------

def remainder_energy(v, data: BoundaryData, region: LocalRegion) -> float:
    """Integral of |grad v_h - grad ext|^2 over centroid-selected triangles.

    ``ext`` is the extension of ``data`` across ``region.geom``'s gap (a
    single-component measurement passes ``data.only(ell)``).  Its gradient is
    evaluated analytically at the centroids, so the measurement is not
    polluted by interpolating the extension itself.  Only the selected
    triangles' gradients of ``v`` and areas are formed.
    """
    mesh = v.mesh
    c = mesh.centroids()
    mask = region.contains(c)
    if not np.any(mask):
        return 0.0
    triangles = np.flatnonzero(mask)
    gv = v.gradients(triangles)
    ge = field_gradients(region.geom, data, c[mask])
    d = gv - ge
    return float(np.sum(mesh.areas(triangles) * np.sum(d * d, axis=(1, 2))))


def center_law(center: dict, gamma: float, band: float, stability_factor: float
               ) -> list[Check]:
    """The neck-center law at z' = 0, read from ``energy.json``'s ``inner_center``
    block: the bound constant ``E / eps^{2g/(1+g)}`` does not grow from the
    largest epsilon to the smallest, and the envelope ``|grad h| <= kappa_1
    |x'|^gamma`` makes the energy decay like ``eps^{2g}``: the exponent lies
    within ``band`` of ``2 gamma`` and ``E / eps^{2g}`` varies by less than
    ``stability_factor``.  A saturated ``eps^{2g/(1+g)}`` decay fails the last
    two.  Needs non-degenerate data.
    """
    two_gamma = 2 * gamma
    eps, energy = np.array(center["table"]).T
    bound = energy / eps ** center["expected"]
    return [
        Check("bound_holds", float(bound[np.argmin(eps)]), "<=", float(bound[np.argmax(eps)]),
              "E/eps^(2g/(1+g)) at the smallest epsilon"),
        Check("exponent_in_band", center["exponent"], "in",
              (two_gamma - band, two_gamma + band), "exponent"),
        Check("compensated_stable", max_over_min(energy / eps ** two_gamma), "<",
              stability_factor, "E/eps^(2g) max/min"),
    ]


def _slab(geom: GapGeometry, zp: float, fraction: float = 1.0) -> LocalRegion:
    """The slab centered on the midline at ``zp``, of radius ``fraction`` gap widths."""
    return LocalRegion(np.array([zp, geom.midline(zp)]), fraction * geom.gap_width(zp), geom)


def _refuse_empty_slabs(aspect: float, stations: np.ndarray, slabs: list,
                        epsilon: float) -> None:
    """Raise a :class:`PlanError` naming ``energy.aspect`` (``aspect``) when one of the
    named ``slabs`` holds no triangle centroid of the energy mesh on ``stations``, so that
    :func:`remainder_energy` would read 0 there.  Every centroid lies inside the gap, and
    each column of cells has the centroid x' of :func:`mesh.centroid_x`.
    """
    x = centroid_x(stations)
    for name, region in slabs:
        if not np.any(np.abs(x - region.center[0]) < region.radius):
            raise PlanError(f"energy.aspect = {aspect:g} at epsilon = {epsilon:g}: "
                            f"the {name} slab at z' = {region.center[0]:.4g} (radius "
                            f"{region.radius:.4g}) holds no triangle centroid of the energy "
                            f"mesh, so its remainder energy would read 0; lower energy.aspect")


def check_energy_scaling(plan: SweepPlan) -> tuple[dict, list[Check]]:
    """``energy-scaling``: power laws of the remainder energy of component 0 over
    gap-width slabs; returns the body of ``energy.json`` and its checks.

    Slabs at ``z' = 0`` (``inner_center``) fit the energy at the neck against
    epsilon; the inner bound predicts at most exponent ``2 gamma / (1 +
    gamma)``, which is attained at the rim of the neck regime (``inner_edge``,
    ``z' = eps^{1/(1+gamma)}``) while the slab at z' = 0 itself decays faster
    (:func:`center_law`, a diagnostic that does not set the exit code).  The
    plan's ``energy_zprimes`` (``outer``) fit, at the smallest epsilon, against
    |z'| with expected exponent ``2 gamma``; those z' are checked before any
    solve.  Each block is the (scale, energy) ``table``, the log-log
    ``exponent`` and 95% ``halfwidth``, and the bound's ``expected`` exponent.
    Data with no jump makes the remainder vanish; that case is flagged
    ``degenerate``, the fits are skipped and the checks are n/a.

    The checks: the edge and outer exponents lie within ``checks.exponent_band``
    of the bounds', and the neck center decays at least as fast as the inner
    bound allows.
    """
    outer_z = sorted(float(z) for z in plan.energy_zprimes)
    eps_list = [float(e) for e in plan.sweep_epsilons]
    g = plan.gamma

    eps_min = eps_list[-1]
    plan._refuse_crossing(eps_min, energy=True)     # the narrowest gap, before any solve
    neck = eps_min ** (1.0 / (1.0 + g))
    geom_min = plan.geometry(eps_min)
    for z in outer_z:
        if z <= neck:
            raise PlanError(f"outer z' = {z} is not beyond the neck scale {neck:.4g}")
        if z + geom_min.gap_width(z) > plan.energy_xrange:
            raise PlanError(f"slab at z' = {z} leaves the meshed strip")
    if len(outer_z) < 3:
        raise PlanError("need at least 3 outer z' values")

    center, edge, outer = [], [], []
    for e in eps_list:
        geom, data, system = plan.problem(e, energy=True)
        slabs = [("inner_center", 0.0), ("inner_edge", e ** (1.0 / (1.0 + g)))]
        slabs = [(name, _slab(geom, z)) for name, z in
                 slabs + ([("outer", z) for z in outer_z] if e == eps_min else [])]
        _refuse_empty_slabs(plan.energy_aspect, system.mesh.stations, slabs, e)
        data = data.only(0)
        v = solve_dirichlet(system, dirichlet_values(system.mesh, data))
        del system          # release the factorization before the next mesh is built
        energies = [remainder_energy(v, data, region) for _, region in slabs]
        center.append((e, energies[0]))
        edge.append((e, energies[1]))
        if e == eps_min:
            outer = list(zip(outer_z, energies[2:]))

    scale = max(1.0, max(v for _, v in center + edge))
    degenerate = max(v for _, v in center + edge) <= 1e-16 * scale
    inner, band = 2 * g / (1 + g), plan.checks_exponent_band

    def fit(table, expected):
        exponent, half = (None, None) if degenerate else fit_rate(table)
        return {"table": table, "exponent": exponent, "halfwidth": half, "expected": expected}

    doc = {"inner_center": fit(center, inner), "inner_edge": fit(edge, inner),
           "outer": fit(outer, 2 * g), "degenerate": degenerate}
    if degenerate:
        doc["note"] = "degenerate data: remainder vanishes, fits skipped"
    else:
        doc["center_law"] = check_block(center_law(doc["inner_center"], g, band,
                                                   plan.checks_stability_factor))

    def in_band(name, block):
        return Check(name, block["exponent"], "in",
                     (block["expected"] - band, block["expected"] + band), "exponent")

    return doc, [in_band("edge_in_band", doc["inner_edge"]),
                 in_band("outer_in_band", doc["outer"]),
                 Check("center_bound", doc["inner_center"]["exponent"], ">=", inner - band,
                       "exponent")]


# ---------------------------------------------------------------------------
# single-run measurements: geometry, solve, coefficients, Proposition 2.1, oracles
# ---------------------------------------------------------------------------

def check_geometry(plan: SweepPlan) -> tuple[dict, list[Check]]:
    """``validate-geometry``: the gap's constants and its least width on |x'| <= 1."""
    geom = plan.geometry(plan.epsilon)
    least = geom.least_width()
    doc = {"epsilon": plan.epsilon, "gamma": plan.gamma, "kappa0": geom.kappa0,
           "kappa1": geom.kappa1, "kappa2": geom.kappa2, "least_width": least}
    return doc, [Check("geometry", least, ">", 0.0, "least gap width")]


def run_solve(plan: SweepPlan):
    """``solve``: the body of ``solve.json``, the solution at ``epsilon`` on the
    sweep mesh, the probe sites of :func:`probe_points` and the gradients there."""
    geom, data, system = plan.problem(plan.epsilon)
    sol = solve_dirichlet(system, dirichlet_values(system.mesh, data))
    pts = probe_points(geom)
    grads = gradient_at(sol, pts)
    doc = {"epsilon": plan.epsilon, "vertices": sol.mesh.num_vertices,
           "triangles": sol.mesh.num_triangles,
           "grad_norm_origin": float(_frob(gradient_at(sol, (0.0, 0.0))))}
    return doc, sol, pts, grads


def _first_component(data: BoundaryData) -> BoundaryData:
    """Component 0 of ``data`` as one-component data: the samplers measure it
    without evaluating and storing m - 1 components that are exactly zero."""
    return BoundaryData(*(a[:1] for a in astuple(data)))


def check_coefficients(plan: SweepPlan) -> tuple[dict, list[Check]]:
    """``validate-coefficients``: the sampled ellipticity constant and Holder
    norm of the plan's coefficients on 100 points of the unit slab, against
    their claims."""
    cs = plan.coefficients()
    region = LocalRegion(np.zeros(2), 1.0, plan.geometry(plan.epsilon))
    # sqrt of check_ellipticity's 10,000 default samples
    pts = region.sample_points(100, plan.seed, tag=0)
    doc = {"system": cs.name, "claimed_lambda": cs.lam, "claimed_kappa3": cs.kappa3}
    try:
        meas = check_ellipticity(cs, points=pts, seed=plan.seed)
        doc.update(measured_lambda=meas.value, near_ties=meas.near_ties)
    except EllipticityError as exc:
        doc["error"] = str(exc)
    k3 = check_holder(cs, points=pts, seed=plan.seed)
    doc["measured_kappa3"] = k3
    return doc, [Check("ellipticity", int("error" in doc), "==", 0, "errors raised"),
                 Check("kappa3", k3, "<=", cs.kappa3, "sampled Holder norm")]


def _prop21_zprimes(geom: GapGeometry) -> list:
    """z' = 0, the neck rim eps^{1/(1+gamma)} and 0.25; each widest slab, of radius
    ``gap_width(z')``, must lie in the unit ball where the profiles are defined."""
    eps = geom.epsilon
    zprimes = [0.0, eps ** (1.0 / (1.0 + geom.gamma)), 0.25]
    for zp in zprimes:
        if zp > 1.0 or zp + geom.gap_width(zp) > 1.0:
            raise PlanError(f"profile.c1 = {geom.c_top:g} and profile.c2 = {geom.c_bottom:g} "
                            f"at epsilon = {eps:g}: the widest slab at z' = {zp:.4g} "
                            f"leaves the unit ball |x'| <= 1")
    return zprimes


def check_prop21(plan: SweepPlan) -> tuple[dict, list[Check]]:
    """``prop21``: the seminorm-growth constants of component 0's extension at
    the z' of :func:`_prop21_zprimes`, every slab checked before any is
    sampled; the largest per epsilon varies by less than the stability factor.
    Where every sampled seminorm is 0 there is no constant to compare: n/a."""
    geoms = [plan.geometry(eps) for eps in plan.sweep_epsilons]
    zprimes = [_prop21_zprimes(geom) for geom in geoms]
    rows, per_eps_max = [], []
    for eps, geom, zps in zip(plan.sweep_epsilons, geoms, zprimes):
        data = _first_component(plan.boundary_data(geom))
        worst = 0.0
        for zp in zps:
            rep = check_seminorm_growth(geom, data, np.array([zp, geom.midline(zp)]),
                                        pairs=plan.prop21_pairs, seed=plan.seed)
            rows += [{"epsilon": eps, "zprime": zp, **asdict(row)} for row in rep.rows]
            if np.isfinite(rep.fitted_constant):
                worst = max(worst, rep.fitted_constant)
        per_eps_max.append(worst)
    stability = None if all(row["lhs"] == 0 for row in rows) else max_over_min(per_eps_max)
    doc = {"rows": rows, "per_epsilon_max_constant": per_eps_max, "stability": stability}
    return doc, [Check("seminorm_growth", stability, "<", plan.checks_stability_factor,
                       "max/min", _VANISHES)]


def _fd_vs_fem(cs: CoefficientSet) -> float:
    """Interior sup distance between the grid twin and the element solution on the
    0.1-wide flat strip, with data (1 + x1^2, 0, ...) on top and 0 below."""
    geom = AffineCase(0.1).geometry()
    data = BoundaryData.polynomial([[1.0, 0.0, 1.0]] + [[0.0]] * (cs.m - 1), [[0.0]] * cs.m,
                                   geom)
    grid = finite_difference_reference(cs, 0.5, geom.epsilon, nx=160, ny=64,
                                       boundary=lambda X: field_values(geom, data, X))
    mesh = generate(geom, grade(geom, 2.0, 0.0125, 0.5), 16)
    sol = solve_dirichlet(assemble(mesh, cs), dirichlet_values(mesh, data))
    return grid_distance(sol, grid)


def check_oracles(plan: SweepPlan) -> tuple[dict, list[Check]]:
    """``oracle-suite``: the affine case at ``epsilon``; the grid twin against the
    elements on a 0.1-wide strip, for the Laplacian and for the plan's Lame constants
    whatever ``system.kind`` says; the sampled seminorm of component 0's extension
    gradient on the neck slab against the dense-grid enumeration (n/a where that is 0)."""
    cs_lame = lame_as_general(plan.lame())
    eps = plan.epsilon
    case = AffineCase(eps)
    flat = case.geometry()
    try:
        mesh = generate(flat, grade(flat, 2.0, 0.05, 1.0), 8)
    except MeshError as exc:
        raise PlanError(f"epsilon = {eps:g} for the affine oracle's flat strip: {exc}") from None
    sol = solve_dirichlet(assemble(mesh, identity_coefficients()),
                          dirichlet_values(mesh, case.data()))
    err = float(np.max(np.abs(sol.values - case.solution(mesh.vertices))))

    worst, worst_l = _fd_vs_fem(identity_coefficients()), _fd_vs_fem(cs_lame)

    gap = plan.geometry(eps)
    data = _first_component(plan.boundary_data(gap))

    def f(X):
        return field_gradients(gap, data, X).reshape(X.shape[0], -1)

    region = _slab(gap, 0.0, 0.5)
    dense = brute_force_seminorm(f, region, plan.gamma, grid=60)
    sampled = holder_seminorm(f, region, plan.gamma, pairs=4000, seed=plan.seed)
    doc = {"affine_nodal_error": err, "fd_vs_fem_scalar": worst, "fd_vs_fem_lame": worst_l,
           "seminorm_dense": dense, "seminorm_sampled": sampled}
    return doc, [
        Check("affine_exact", err, "<=", 1e-10, "nodal error"),
        Check("fd_vs_fem_scalar", worst, "<=", 0.01, "interior sup distance"),
        Check("fd_vs_fem_lame", worst_l, "<=", 0.01, "interior sup distance"),
        Check("seminorm_sampling", None if dense == 0 else sampled, ">=", 0.8 * dense,
              "sampled seminorm", _VANISHES)]
