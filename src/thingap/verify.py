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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np
from scipy import special

from .auxiliary import AuxiliaryField, BoundaryData, field_gradients
from .coefficients import (CoefficientSet, EllipticityError, LameParameters,
                           holder_demo_coefficients, identity_coefficients, lame_as_general)
from .geometry import GapGeometry, LocalRegion
from .mesh import generate, refine
from .solver import (AssembledSystem, assemble, dirichlet_values, gradient_at,
                     l2_norm, solve_component, solve_dirichlet)


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
    tq = float(special.stdtrit(n - 2, 0.975))
    return slope, tq * se


# ---------------------------------------------------------------------------
# sweep plan and builders
# ---------------------------------------------------------------------------

@dataclass
class SweepPlan:
    """Everything needed to reproduce a sweep, including the seed."""

    epsilons: tuple = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3)
    gamma: float = 0.5
    profile_kind: str = "power"
    profile_c1: float = 1.0
    profile_c2: float = -1.0
    system_kind: str = "lame"
    lambda1: float = 1.0
    mu1: float = 1.0
    m: int = 1                      # components for the identity system
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
    probes_centerline: int = 33
    probes_profile: int = 65
    probe_offset: float = 0.05
    reliability_threshold: float = 0.10
    seed: int = 0

    def validate(self):
        eps = tuple(float(e) for e in self.epsilons)
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
        if self.system_kind == "custom" or self.bc_kind == "custom":
            raise PlanError("kind 'custom' requires supplying rules through the "
                            "Python API, not the flat config")
        if self.system_kind not in ("lame", "identity", "holder_demo"):
            raise PlanError(f"unknown system kind {self.system_kind!r}")
        if self.bc_kind not in ("constant_jump", "polynomial"):
            raise PlanError(f"unknown bc kind {self.bc_kind!r}")
        if self.system_kind == "lame":
            self.lame()
        for key, layers, aspect, xrange in (
                ("mesh", self.mesh_layers, self.mesh_aspect, self.mesh_xrange),
                ("energy", self.energy_layers, self.energy_aspect, self.energy_xrange)):
            if layers < 4:
                raise PlanError(f"{key}.layers must be >= 4, got {layers}")
            if not 0 < xrange <= 1:
                raise PlanError(f"{key}.xrange must lie in (0, 1], got {xrange}")
            if aspect <= 0:
                raise PlanError(f"{key}.aspect must be positive, got {aspect}")
        if self.mesh_dxmax <= 0:
            raise PlanError(f"mesh.dxmax must be positive, got {self.mesh_dxmax}")
        if self.probes_centerline < 1 or self.probes_profile < 1:
            raise PlanError("probes.centerline and probes.profile must be >= 1")
        if not 0 <= self.probe_offset < 0.5:
            raise PlanError(f"probes.offset must lie in [0, 0.5), got {self.probe_offset}")

    def geometry(self, epsilon: float, dim: int = 2) -> GapGeometry:
        if self.profile_kind == "power":
            return GapGeometry.power_law(epsilon, self.gamma, self.profile_c1,
                                         self.profile_c2, dim=dim)
        if self.profile_kind == "flat":
            return GapGeometry.flat(epsilon, self.gamma, dim=dim)
        raise PlanError(f"unknown profile kind {self.profile_kind!r}")

    def lame(self) -> LameParameters:
        """The Lame constants ``system.lambda1`` and ``system.mu1``."""
        try:
            return LameParameters(self.lambda1, self.mu1)
        except EllipticityError as exc:
            raise PlanError(f"system.lambda1 and system.mu1: {exc}") from None

    def coefficients(self) -> CoefficientSet:
        if self.system_kind == "lame":
            return lame_as_general(self.lame(), 2)
        if self.system_kind == "identity":
            return identity_coefficients(m=self.m, n=2)
        return holder_demo_coefficients(self.gamma, m=self.m, n=2)

    def boundary_data(self, geom: GapGeometry) -> BoundaryData:
        m = self.coefficients().m
        if self.bc_kind == "constant_jump":
            phi = _pad(self.bc_phi, m)
            psi = _pad(self.bc_psi, m)
            return BoundaryData.constant(phi, psi)
        # polynomial data: the given coefficients act on component 0
        phi = [list(self.bc_phi)] + [[0.0]] * (m - 1)
        psi = [list(self.bc_psi)] + [[0.0]] * (m - 1)
        return BoundaryData.polynomial(phi, psi, geom)

    def problem(self, epsilon: float, energy: bool = False
                ) -> tuple[GapGeometry, BoundaryData, AssembledSystem]:
        """Geometry, boundary data and assembled system at one gap width.

        The mesh is the sweep mesh (``mesh.*`` keys), or with ``energy`` the
        energy-scaling mesh (``energy.layers``, ``energy.aspect``,
        ``energy.xrange`` with ``mesh.dxmax``).
        """
        geom = self.geometry(epsilon)
        data = self.boundary_data(geom)
        if energy:
            mesh = generate(geom, self.energy_layers, self.energy_aspect, self.mesh_dxmax,
                            self.energy_xrange)
        else:
            mesh = generate(geom, self.mesh_layers, self.mesh_aspect, self.mesh_dxmax,
                            self.mesh_xrange)
        return geom, data, assemble(mesh, self.coefficients())


def max_over_min(values) -> float:
    """Spread ``max / min`` of positive values; infinite when the minimum is not positive."""
    lo, hi = min(values), max(values)
    return float(hi / lo) if lo > 0 else float("inf")


def _pad(values, m):
    """Per-component constants: missing components are zero, extra ones must be."""
    v = list(float(x) for x in values)
    if any(x != 0.0 for x in v[m:]):
        raise PlanError(f"boundary constants {v} have nonzero entries beyond the "
                        f"system's {m} components")
    return v[:m] + [0.0] * (m - len(v))


# ---------------------------------------------------------------------------
# per-epsilon pipeline
# ---------------------------------------------------------------------------

@dataclass
class EpsilonRecord:
    epsilon: float
    M_center: float
    centerline_xn: np.ndarray
    centerline_grad: np.ndarray
    profile_xp: np.ndarray
    profile_grad: np.ndarray
    u_l2: float
    norm_terms: float
    jump_at_profile: np.ndarray
    C_profile: float
    C_upper: float
    C_lower: Optional[float]
    M_center_refined: float
    reliability_change: float
    reliable: bool
    energy_E0: float
    flags: tuple = ()

    def to_dict(self) -> dict:
        d = {
            "epsilon": self.epsilon,
            "M_center": self.M_center,
            "centerline_sup": float(np.max(self.centerline_grad)),
            "centerline_min": float(np.min(self.centerline_grad)),
            "u_l2": self.u_l2,
            "norm_terms": self.norm_terms,
            "C_upper": self.C_upper,
            "C_lower": self.C_lower,
            "energy_E0": self.energy_E0,
            "M_center_refined": self.M_center_refined,
            "reliability_change": self.reliability_change,
            "reliable": self.reliable,
            "flags": list(self.flags),
            "centerline": [[float(a), float(b)] for a, b in
                           zip(self.centerline_xn, self.centerline_grad)],
            "profile": [[float(a), float(b)] for a, b in
                        zip(self.profile_xp, self.profile_grad)],
        }
        return d


def _frob(mat: np.ndarray) -> np.ndarray:
    """Frobenius norm of the trailing (m, n) matrix, for one or a stack."""
    return np.sqrt(np.sum(mat * mat, axis=(-2, -1)))


def probe_points(plan: SweepPlan, geom: GapGeometry):
    """Probe sites: centerline heights ``xn`` at x' = 0, midline ``(xp, mid)``.

    The centerline stays ``probe_offset`` gap widths inside each boundary.
    """
    w0 = float(geom.gap_width(np.zeros(1)))
    off = plan.probe_offset * w0
    xn = np.linspace(float(geom.bottom(np.zeros(1))) + off,
                     float(geom.top(np.zeros(1))) - off, plan.probes_centerline)
    xp = np.linspace(-0.5, 0.5, plan.probes_profile)
    return xn, xp, geom.midline(xp[:, None])


def _probe_solution(plan: SweepPlan, geom: GapGeometry, sol, data: BoundaryData):
    """Centerline and midline gradient probes."""
    xn, xp, mid = probe_points(plan, geom)
    pts = np.concatenate([np.stack([np.zeros_like(xn), xn], axis=1),
                          np.stack([xp, mid], axis=1)])
    norms = _frob(gradient_at(sol, pts))
    cl, pf = norms[:xn.size], norms[xn.size:]
    jumps = np.linalg.norm(np.atleast_2d(data.jump(geom, xp[:, None])), axis=1)
    return xn, cl, xp, pf, jumps


def _run_one_epsilon(plan: SweepPlan, epsilon: float) -> EpsilonRecord:
    geom, data, system = plan.problem(epsilon)
    sol = solve_dirichlet(system, dirichlet_values(system.mesh, data))

    fine = refine(system.mesh)
    sol_f = solve_dirichlet(assemble(fine, system.cs), dirichlet_values(fine, data))

    M = float(_frob(gradient_at(sol, (0.0, 0.0))))
    M_f = float(_frob(gradient_at(sol_f, (0.0, 0.0))))
    change = abs(M - M_f) / max(abs(M_f), 1e-300)
    reliable = change < plan.reliability_threshold

    xn, cl, xp, pf, jumps = _probe_solution(plan, geom, sol, data)
    u2 = l2_norm(sol)
    norm_terms = float(np.max(data.phi_norms) + np.max(data.psi_norms) + u2)

    # envelope constants: solve the displayed bounds for their constants
    denom_profile = jumps / (epsilon + np.abs(xp) ** (1 + plan.gamma)) + norm_terms
    C_profile = float(np.max(pf / denom_profile))
    jump0 = np.atleast_2d(data.jump(geom, np.zeros((1, 1))))[0]
    denom_center = float(np.linalg.norm(jump0)) / epsilon + norm_terms
    C_upper = max(C_profile, float(np.max(cl)) / denom_center)
    max_comp = float(np.max(np.abs(jump0)))
    C_lower = None
    if max_comp > 1e-14 * max(1.0, norm_terms):
        C_lower = float(np.min(cl)) * epsilon / max_comp

    # remainder energy on the neck slab, measured on this sweep mesh
    ell = int(np.argmax(np.abs(jump0)))
    v_ell = solve_component(system, data, ell)
    fld = AuxiliaryField(geom, data, ell)
    w0 = float(geom.gap_width(np.zeros(1)))
    neck = LocalRegion(np.array([0.0, float(geom.midline(np.zeros(1)))]), w0, geom)
    E0 = remainder_energy(v_ell, fld, neck)

    flags = []
    if not reliable:
        flags.append("unreliable")
    if not (np.isfinite(M) and np.all(np.isfinite(cl)) and np.all(np.isfinite(pf))):
        flags.append("nonfinite")
    return EpsilonRecord(
        epsilon=epsilon, M_center=M,
        centerline_xn=xn, centerline_grad=cl,
        profile_xp=xp, profile_grad=pf,
        u_l2=u2, norm_terms=norm_terms,
        jump_at_profile=jumps, C_profile=C_profile,
        C_upper=C_upper, C_lower=C_lower,
        M_center_refined=M_f, reliability_change=change, reliable=reliable,
        energy_E0=E0,
        flags=tuple(flags),
    )


# ---------------------------------------------------------------------------
# sweep driver and derived checks
# ---------------------------------------------------------------------------

@dataclass
class BlowupReport:
    plan: SweepPlan
    records: list
    rho: float
    rho_halfwidth: float
    degenerate: bool
    energy_exponent: Optional[float] = None
    energy_halfwidth: Optional[float] = None

    def to_dict(self) -> dict:
        return {
            "plan": asdict(self.plan),
            "fit": {"rho": self.rho, "rho_halfwidth": self.rho_halfwidth,
                    "degenerate": self.degenerate},
            "energy_fit": {
                "neck_exponent": self.energy_exponent,
                "halfwidth": self.energy_halfwidth,
                "note": "neck-slab remainder energy on the sweep meshes; "
                        "the energy-scaling command measures all regimes "
                        "on dedicated finer meshes",
            },
            "per_epsilon": [r.to_dict() for r in self.records],
        }


def run_sweep(plan: SweepPlan, threads: int = 1) -> BlowupReport:
    """Solve, probe and fit across the plan's gap widths.

    Per-epsilon pipelines are independent; with ``threads > 1`` they run in
    a thread pool and are merged back in plan order, so the report does not
    depend on completion order.
    """
    plan.validate()
    if not any(plan.bc_phi) and not any(plan.bc_psi):
        raise PlanError("bc.phi and bc.psi are all zero: the solution vanishes and "
                        "the sweep has no envelope constant to fit")
    eps = [float(e) for e in plan.epsilons]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            recs = {e: r for e, r in zip(eps, pool.map(
                lambda e: _run_one_epsilon(plan, e), eps))}
        records = [recs[e] for e in eps]
    else:
        records = [_run_one_epsilon(plan, e) for e in eps]

    scale = max(1.0, max(r.norm_terms for r in records))
    degenerate = max(r.M_center for r in records) <= 1e-8 * scale
    if degenerate:
        rho, half = 0.0, 0.0
    else:
        slope, half = fit_rate([(r.epsilon, r.M_center) for r in records])
        rho = -slope
    e_expo = e_half = None
    if all(r.energy_E0 > 0 for r in records):
        e_expo, e_half = fit_rate([(r.epsilon, r.energy_E0) for r in records])
    return BlowupReport(plan=plan, records=records, rho=rho, rho_halfwidth=half,
                        degenerate=degenerate, energy_exponent=e_expo,
                        energy_halfwidth=e_half)


@dataclass
class LowerBoundCheck:
    applicable: bool
    constants: list
    sweep_max_over_min: Optional[float]
    passed: Optional[bool]


def check_lower_bound(report: BlowupReport, stability_factor: float = 3.0) -> LowerBoundCheck:
    """Stability of the centerline lower-bound constant across the sweep."""
    consts = [r.C_lower for r in report.records]
    if any(c is None for c in consts):
        return LowerBoundCheck(applicable=False, constants=[], sweep_max_over_min=None,
                               passed=None)
    ratio = max_over_min(consts)
    ok = bool(ratio < stability_factor)
    return LowerBoundCheck(applicable=True, constants=consts,
                           sweep_max_over_min=ratio, passed=ok)


# ---------------------------------------------------------------------------
# energy scaling of the remainder
# ---------------------------------------------------------------------------

def remainder_energy(v, fld: AuxiliaryField, region: LocalRegion) -> float:
    """Integral of |grad v_h - grad ext|^2 over centroid-selected triangles.

    The extension gradient is evaluated analytically at the centroids, so
    the measurement is not polluted by interpolating the extension itself.
    """
    mesh = v.mesh
    c = mesh.centroids()
    mask = region.contains(c)
    if not np.any(mask):
        return 0.0
    gv = v.gradients()[mask]
    ge = field_gradients(fld, c[mask])
    d = gv - ge
    return float(np.sum(mesh.areas()[mask] * np.sum(d * d, axis=(1, 2))))


@dataclass
class EnergyScalingResult:
    """Power-law fits of the remainder energy at three probe families.

    ``center`` slabs sit at z' = 0 with radius equal to the neck width;
    ``edge`` slabs sit at z' = epsilon^{1/(1+gamma)}, the outer rim of the
    neck regime, where the inner bound is actually attained (at z' = 0 the
    profile gradients are O(epsilon^gamma), smaller than the regime-wide
    worst case, and the measured decay is correspondingly faster than the
    bound); ``outer`` slabs vary z' at the smallest epsilon.
    """

    center_table: list             # (epsilon, energy) at z' = 0
    center_exponent: Optional[float]
    center_halfwidth: Optional[float]
    edge_table: list               # (epsilon, energy) at z' = eps^{1/(1+gamma)}
    edge_exponent: Optional[float]
    edge_halfwidth: Optional[float]
    outer_table: list              # (z', energy)
    outer_exponent: Optional[float]
    outer_halfwidth: Optional[float]
    expected_inner: float
    expected_outer: float
    degenerate: bool

    def to_dict(self) -> dict:
        def block(table, expo, half, expected):
            return {"table": [[a, b] for a, b in table], "exponent": expo,
                    "halfwidth": half, "expected": expected}
        return {
            "inner_center": block(self.center_table, self.center_exponent,
                                  self.center_halfwidth, self.expected_inner),
            "inner_edge": block(self.edge_table, self.edge_exponent,
                                self.edge_halfwidth, self.expected_inner),
            "outer": block(self.outer_table, self.outer_exponent,
                           self.outer_halfwidth, self.expected_outer),
            "degenerate": self.degenerate,
        }

    def center_slack(self, band: float, stability_factor: float) -> dict:
        """The neck-center law at z' = 0: the bound holds, the decay is 2 gamma.

        The inner bound holds at the center when ``E / eps^{2 gamma/(1+gamma)}``
        at the smallest epsilon does not exceed its value at the largest.  The
        envelope ``|grad h| <= kappa_1 |x'|^gamma`` makes the center decay at its
        own rate ``eps^{2 gamma}``: the fitted exponent lies within ``band`` of
        ``2 gamma`` and ``E / eps^{2 gamma}`` varies by less than
        ``stability_factor`` over the sweep.  A saturated ``eps^{2 gamma/(1+gamma)}``
        decay fails the second part.
        """
        two_gamma = self.expected_outer
        eps = np.array([e for e, _ in self.center_table])
        energy = np.array([v for _, v in self.center_table])
        bound = energy / eps ** self.expected_inner
        compensated = energy / eps ** two_gamma
        largest, smallest = float(bound[np.argmax(eps)]), float(bound[np.argmin(eps)])
        spread = max_over_min(compensated)
        bound_holds = smallest <= largest
        in_band = bool(abs(self.center_exponent - two_gamma) <= band)
        stable = spread < stability_factor
        return {"exponent": self.center_exponent, "expected": two_gamma,
                "bound_constant_largest_eps": largest,
                "bound_constant_smallest_eps": smallest,
                "compensated_max_over_min": spread,
                "bound_holds": bound_holds, "exponent_in_band": in_band,
                "compensated_stable": stable,
                "passed": bound_holds and in_band and stable}


def _slab_energy(geom: GapGeometry, v, fld: AuxiliaryField, zp: float) -> float:
    w = float(geom.gap_width(np.array([zp])))
    mid = float(geom.midline(np.array([zp])))
    region = LocalRegion(np.array([zp, mid]), w, geom)
    return remainder_energy(v, fld, region)


def check_energy_scaling(plan: SweepPlan) -> EnergyScalingResult:
    """Power laws of the remainder energy of component 0 over gap-width slabs.

    Slabs at ``z' = 0`` fit the energy at the neck against epsilon; the inner
    bound predicts at most exponent ``2 gamma / (1 + gamma)``, which is
    attained at the rim of the neck regime (``z' = eps^{1/(1+gamma)}``, also
    fitted) while the slab at z' = 0 itself decays faster.  The plan's
    ``energy_zprimes`` fit, at the smallest epsilon, against |z'| with
    expected exponent ``2 gamma``.  Data with no jump makes the remainder
    vanish; that case is flagged degenerate and the fits are skipped.
    """
    plan.validate()
    outer_z = sorted(float(z) for z in plan.energy_zprimes)
    eps_list = [float(e) for e in plan.epsilons]
    g = plan.gamma

    center, edge, outer = [], [], []
    eps_min = eps_list[-1]
    for e in eps_list:
        geom, data, system = plan.problem(e, energy=True)
        v = solve_component(system, data, 0)
        del system          # release the factorization before the next mesh is built
        fld = AuxiliaryField(geom, data, 0)
        center.append((e, _slab_energy(geom, v, fld, 0.0)))
        edge.append((e, _slab_energy(geom, v, fld, e ** (1.0 / (1.0 + g)))))
        if e == eps_min:
            for z in outer_z:
                if z <= e ** (1.0 / (1.0 + g)):
                    raise PlanError(
                        f"outer z' = {z} is not beyond the neck scale "
                        f"{e ** (1.0 / (1.0 + g)):.4g}")
                wz = float(geom.gap_width(np.array([z])))
                if z + wz > plan.energy_xrange:
                    raise PlanError(f"slab at z' = {z} leaves the meshed strip")
                outer.append((z, _slab_energy(geom, v, fld, z)))

    expected_inner = 2 * g / (1 + g)
    scale = max(1.0, max(v for _, v in center + edge))
    degenerate = max(v for _, v in center + edge) <= 1e-16 * scale
    if degenerate:
        return EnergyScalingResult(center, None, None, edge, None, None,
                                   outer, None, None, expected_inner, 2 * g, True)
    slope_c, half_c = fit_rate(center)
    slope_e, half_e = fit_rate(edge)
    if len(outer) < 3:
        raise PlanError("need at least 3 outer z' values")
    slope_o, half_o = fit_rate(outer)
    return EnergyScalingResult(center, slope_c, half_c, edge, slope_e, half_e,
                               outer, slope_o, half_o, expected_inner, 2 * g, False)

