"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines and
the measured values.  Criterion 6 is split: the power-law exponents of the
remainder energy are verified where the inner bound is attained (the rim of
the neck regime) and in the outer regime; at the exact neck center the
bound is checked to hold with slack, the energy decaying at its own rate
``eps^{2 gamma}``, on the default energy mesh and one refinement level up.
"""

import dataclasses
import time

import numpy as np
import pytest

import thingap as tg
from thingap.auxiliary import BoundaryData, field_gradients, field_values, gap_fraction_gradient
from thingap.cli import run as cli_run
from thingap.geometry import GapGeometry
from thingap.mesh import generate, grade, refine
from thingap.solver import (BoundaryAssignment, RightHandSide, assemble,
                            dirichlet_values, solve_dirichlet)
from thingap.verify import (SweepPlan, center_law, check_energy_scaling, check_oracles,
                            check_prop21, fit_rate, max_over_min, run_sweep)

GAMMA = 0.5
RHO_BAND = (0.85, 1.15)
EXPONENT_HALF_BAND = 0.2
STABILITY_FACTOR = 3.0


@pytest.fixture(scope="module")
def default_sweep():
    plan = SweepPlan()
    t0 = time.monotonic()
    doc, checks = run_sweep(plan)
    elapsed = time.monotonic() - t0
    return plan, doc, _by_name(checks), elapsed


def _announce(n, text):
    print(f"\nPASS criterion {n}: {text}")


def _by_name(checks):
    return {c.name: c for c in checks}


# -- criterion 1: oracle exactness ------------------------------------------

def test_criterion1_affine_oracle_exact():
    # the oracle-suite measurement: the affine case to 1e-10 at the nodes, and
    # the finite-difference twin within 0.01 for the Laplacian and for Lame
    t0 = time.monotonic()
    doc, checks = check_oracles(SweepPlan(epsilon=0.1))
    elapsed = time.monotonic() - t0
    checks = _by_name(checks)
    for name in ("affine_exact", "fd_vs_fem_scalar", "fd_vs_fem_lame"):
        assert checks[name].verdict == "pass", f"{name}: {checks[name].reason()}"
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s"
    _announce(1, f"affine case reproduced to {doc['affine_nodal_error']:.2e}; grid twin "
                 f"within {doc['fd_vs_fem_scalar']:.2e} (scalar), "
                 f"{doc['fd_vs_fem_lame']:.2e} (Lame) in {elapsed:.2f}s")


# -- criterion 2: manufactured-solution convergence ---------------------------

def _mms_errors(cs, mesh):
    A0 = cs.A

    def ustar(X):
        X = np.atleast_2d(X)
        u1 = np.sin(1.3 * X[:, 0]) * np.cosh(X[:, 1]) + 0.3 * X[:, 0] ** 2
        u2 = np.cos(X[:, 0]) * X[:, 1] + 0.1 * X[:, 0]
        return np.stack([u1, u2], axis=1)[:, :cs.m]

    def gstar(X):
        X = np.atleast_2d(X)
        g = np.empty((X.shape[0], 2, 2))
        g[:, 0, 0] = 1.3 * np.cos(1.3 * X[:, 0]) * np.cosh(X[:, 1]) + 0.6 * X[:, 0]
        g[:, 0, 1] = np.sin(1.3 * X[:, 0]) * np.sinh(X[:, 1])
        g[:, 1, 0] = -np.sin(X[:, 0]) * X[:, 1] + 0.1
        g[:, 1, 1] = np.cos(X[:, 0])
        return g[:, :cs.m, :]

    def F(X):
        return np.einsum("pqij,kjq->kip", A0, gstar(X))

    system = assemble(mesh, cs, rhs=RightHandSide(F=F))
    bc = BoundaryAssignment(values=ustar(mesh.vertices), fixed=mesh.vertex_tags != 0)
    sol = solve_dirichlet(system, bc)
    diff = sol.values - ustar(mesh.vertices)
    c_vals = diff[mesh.triangles].mean(axis=1)
    l2 = float(np.sqrt(np.sum(mesh.areas() * np.sum(c_vals**2, axis=1))))
    gd = sol.gradients() - gstar(mesh.centroids())
    h1 = float(np.sqrt(np.sum(mesh.areas() * np.sum(gd**2, axis=(1, 2)))))
    return l2, h1


def test_criterion2_manufactured_convergence_rates():
    t0 = time.monotonic()
    geom = GapGeometry(0.1, GAMMA)
    rates = {}
    levels = 4                          # base mesh plus 3 refinements
    for name, cs in (("identity", tg.identity_coefficients(m=2)),
                     ("lame", tg.lame_as_general(tg.LameParameters(1.0, 1.0)))):
        mesh = generate(geom, grade(geom, 1.0, 0.1, 0.5), 4)
        errs = []
        for level in range(levels):
            errs.append(_mms_errors(cs, mesh))
            if level < levels - 1:
                mesh = refine(mesh)
        hs = [2.0 ** (-k) for k in range(levels)]
        rate_l2, _ = fit_rate(list(zip(hs, [e[0] for e in errs])))
        rate_h1, _ = fit_rate(list(zip(hs, [e[1] for e in errs])))
        rates[name] = (rate_l2, rate_h1)
        assert abs(rate_l2 - 2.0) <= 0.2, f"{name}: L2 rate {rate_l2:.3f} not 2 +/- 0.2"
        assert abs(rate_h1 - 1.0) <= 0.2, f"{name}: H1 rate {rate_h1:.3f} not 1 +/- 0.2"
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0, f"runtime {elapsed:.1f}s exceeds 2 min"
    _announce(2, "convergence rates " + ", ".join(
        f"{k}: L2 {v[0]:.2f}, H1 {v[1]:.2f}" for k, v in rates.items())
        + f" in {elapsed:.1f}s")


# -- criterion 3: blow-up rate ------------------------------------------------

def test_criterion3_blowup_rate(default_sweep):
    plan, doc, checks, elapsed = default_sweep
    assert plan.sweep_epsilons == (1e-1, 3e-2, 1e-2, 3e-3, 1e-3)
    reliability = checks["reliability"]
    assert reliability.verdict == "pass", f"mesh-reliability gate: {reliability.reason()}"
    fit = doc["fit"]
    assert RHO_BAND[0] <= fit["rho"] <= RHO_BAND[1], \
        f"fitted centerline exponent {fit['rho']:.4f} outside {RHO_BAND}"
    assert elapsed < 900.0, f"runtime {elapsed:.1f}s exceeds 15 min"
    _announce(3, f"rho = {fit['rho']:.4f} +/- {fit['rho_halfwidth']:.4f}, "
                 f"all gates pass, {elapsed:.1f}s single-threaded")


# -- criterion 4: upper-envelope stability -------------------------------------

def test_criterion4_envelope_constant_stability(default_sweep):
    plan, doc, _, _ = default_sweep
    # the envelope |grad u| <= C (jump / (eps + |x'|^{1+gamma}) + norm terms),
    # solved for C from the recorded midline probes and the plan's data jump,
    # independently of verify
    consts = []
    for r in doc["per_epsilon"]:
        eps, (xp, grad) = r["epsilon"], np.array(r["profile"]).T
        jumps = np.linalg.norm(plan.boundary_data(plan.geometry(eps)).jump(xp), axis=1)
        denom = jumps / (eps + np.abs(xp) ** (1 + plan.gamma)) + r["norm_terms"]
        consts.append(float(np.max(grad / denom)))
        assert consts[-1] == r["C_profile"], f"eps={eps:g}: C_profile {r['C_profile']!r}"
        assert r["C_upper"] >= r["C_profile"]
    ratio = max_over_min(consts)
    assert ratio < STABILITY_FACTOR, f"profile constants vary by {ratio:.3f} >= 3"
    _announce(4, f"envelope constants {min(consts):.3f}..{max(consts):.3f} "
                 f"(ratio {ratio:.3f} < 3)")


# -- criterion 5: lower bound and the no-jump control ---------------------------

def test_criterion5_lower_bound_and_no_jump(default_sweep):
    plan, doc, checks, _ = default_sweep
    lb = checks["lower_bound"]
    constants = [r["C_lower"] for r in doc["per_epsilon"]]
    assert lb.verdict == "pass", f"lower-bound constants unstable: {constants}"
    assert min(constants) > 0

    equal = dataclasses.replace(plan, bc_kind="polynomial",
                                bc_phi=(1.0, 1.0, 1.0), bc_psi=(1.0, 1.0, 1.0))
    rho_eq = run_sweep(equal)[0]["fit"]["rho"]
    assert -0.15 <= rho_eq <= 0.15, \
        f"no-jump sweep shows spurious blow-up: rho = {rho_eq:.4f}"
    _announce(5, f"lower constants {min(constants):.3f}..{max(constants):.3f} "
                 f"(ratio {lb.value:.3f} < 3); "
                 f"no-jump rho = {rho_eq:.4f}")


# -- criterion 6: energy scaling ------------------------------------------------

@pytest.fixture(scope="module")
def energy_result():
    return check_energy_scaling(SweepPlan())[0]


def test_criterion6_energy_scaling_regimes(energy_result):
    center, edge, outer = (energy_result[block] for block in ("inner_center", "inner_edge",
                                                              "outer"))
    lo, hi = edge["expected"] - EXPONENT_HALF_BAND, edge["expected"] + EXPONENT_HALF_BAND
    assert lo <= edge["exponent"] <= hi, \
        f"inner-regime exponent {edge['exponent']:.4f} outside [{lo:.3f}, {hi:.3f}]"
    lo_o, hi_o = outer["expected"] - EXPONENT_HALF_BAND, outer["expected"] + EXPONENT_HALF_BAND
    assert lo_o <= outer["exponent"] <= hi_o, \
        f"outer exponent {outer['exponent']:.4f} outside [{lo_o:.3f}, {hi_o:.3f}]"
    # the neck-center slab must not decay slower than the bound allows
    assert center["exponent"] >= lo, \
        f"neck-center energy decays slower than the bound permits " \
        f"({center['exponent']:.4f} < {lo:.3f})"
    _announce(6, f"energy exponents: inner regime {edge['exponent']:.4f} "
                 f"(expected {edge['expected']:.4f}), outer {outer['exponent']:.4f} "
                 f"(expected {outer['expected']:.4f}); neck-center decays at "
                 f"{center['exponent']:.4f}")


def test_criterion6_energy_scaling_at_literal_center(energy_result):
    # The neck-center law at z' = 0, as the analysis states it.  The inner
    # bound C*eps^{2g/(1+g)} is an upper bound, attained at the rim of the
    # neck regime (regime check above).  At z' = 0 the envelope
    # |grad h| <= kappa_1 |x'|^gamma keeps the profile gradients O(eps^gamma),
    # so the bound holds with slack and the energy decays like eps^{2 gamma}.
    # Asserted: the bound constant E/eps^{2g/(1+g)} does not drift up; the
    # center exponent is within the band of 2*gamma and E/eps^{2 gamma} varies
    # by less than STABILITY_FACTOR; both hold again one refinement level up,
    # with the exponent within half a band of the default fit.
    # Lame refinement study (energy layers/aspect 16/0.25, 32/0.125,
    # 64/0.0625): the whole-sweep fit stays at 0.927 / 0.934 / 0.930, because
    # eps = 0.1 is not yet asymptotic (E/eps^{2 gamma} there is 0.34 against
    # 0.48-0.50 below it); the local slope from eps = 3e-3 to 1e-3,
    # 0.991 / 0.996 / 0.997, is what approaches 2*gamma = 1.
    # energy-scaling reports this law, with the plan's band and factor, as the
    # center_law block of energy.json
    band, factor = EXPONENT_HALF_BAND, STABILITY_FACTOR
    plan = SweepPlan()
    assert (plan.checks_exponent_band, plan.checks_stability_factor) == (band, factor)
    res = energy_result
    refined = check_energy_scaling(dataclasses.replace(
        plan, energy_layers=32, energy_aspect=0.125))[0]
    for label, doc in (("default", res), ("refined", refined)):
        law = doc["center_law"]
        assert list(law["verdicts"]) == ["bound_holds", "exponent_in_band",
                                         "compensated_stable"]
        for name, verdict in law["verdicts"].items():
            # bound_holds: E/eps^{2g/(1+g)} does not drift up at the neck center;
            # exponent_in_band: 2 gamma +- band; compensated_stable: E/eps^{2g}
            assert verdict == "pass", f"{label} mesh, {name}: {law['checks'][name]}"
    center = res["inner_center"]
    drift = abs(refined["inner_center"]["exponent"] - center["exponent"])
    assert drift <= band / 2, \
        f"neck-center exponent drifts by {drift:.4f} > {band / 2:.3f} under refinement"
    # the check has teeth: a center that saturates the bound fails it
    e0, v0 = center["table"][0]
    saturated = [(e, v0 * (e / e0) ** center["expected"]) for e, _ in center["table"]]
    sat = dict(center, table=saturated, exponent=fit_rate(saturated)[0])
    assert any(c.verdict == "fail" for c in center_law(sat, GAMMA, band, factor))
    bound = res["center_law"]["checks"]["bound_holds"]
    _announce(6, f"neck center z' = 0 decays at {center['exponent']:.4f} "
                 f"(refined {refined['inner_center']['exponent']:.4f}; 2*gamma = "
                 f"{2 * GAMMA:.4f}), bound constant "
                 f"{bound['bound']:.4f} -> {bound['value']:.4f}")


# -- criterion 7: auxiliary identities ------------------------------------------

def test_criterion7_auxiliary_identities():
    geom = GapGeometry(1e-2, GAMMA)
    rng = np.random.default_rng(11)
    xp = rng.uniform(-0.9, 0.9, size=1000)
    t = rng.uniform(0.15, 0.85, size=1000)
    bot, top = geom.bottom(xp), geom.top(xp)
    X = np.stack([xp, bot + t * (top - bot)], axis=1)

    g = gap_fraction_gradient(geom, X)
    want = 1.0 / geom.gap_width(xp)
    assert np.array_equal(g[:, 1], want), "vertical derivative identity violated"

    data = BoundaryData.polynomial([[1.0, 0.5, 1.0], [0.2]], [[0.0], [0.1, -0.3]], geom)
    grads = field_gradients(geom, data, X)
    h = (1e-7 * geom.gap_width(xp))[:, None]
    worst = 0.0
    for d in range(2):
        step = np.zeros_like(X)
        step[:, d] = h[:, 0]
        fd = (field_values(geom, data, X + step)
              - field_values(geom, data, X - step)) / (2 * h)
        scale = np.maximum(np.linalg.norm(grads, axis=(1, 2)), 1.0)
        worst = max(worst, float(np.max(np.abs(fd - grads[:, :, d]) / scale[:, None])))
    assert worst <= 1e-6, f"extension gradient vs finite differences: {worst:.3e}"
    _announce(7, f"vertical-derivative identity exact at 1000 samples; "
                 f"gradient vs finite differences {worst:.2e} <= 1e-6")


# -- criterion 8: seminorm growth constants ---------------------------------------

def test_criterion8_seminorm_growth_stability():
    # the prop21 measurement, and the oracle-suite calibration of its sampler
    plan = SweepPlan()
    doc, (growth,) = check_prop21(plan)
    per_eps = doc["per_epsilon_max_constant"]
    assert growth.verdict == "pass", f"growth constants {per_eps}: {growth.reason()}"
    # every slab center has a slab that satisfies the bound's hypothesis
    fitted = {(r["epsilon"], r["zprime"]) for r in doc["rows"] if r["hypothesis_ok"]}
    assert len(fitted) == 3 * len(plan.sweep_epsilons)

    oracles, checks = check_oracles(plan)
    calibration = _by_name(checks)["seminorm_sampling"]
    assert calibration.verdict == "pass", calibration.reason()
    _announce(8, f"growth constants {min(per_eps):.3f}..{max(per_eps):.3f} "
                 f"(ratio {growth.value:.3f} < 3); seminorm calibration "
                 f"{oracles['seminorm_sampled'] / oracles['seminorm_dense']:.3f} >= 0.8")


# -- criterion 9: superposition ----------------------------------------------------

def test_criterion9_superposition(default_sweep):
    plan = default_sweep[0]
    eps = 1e-2
    _, data, system = plan.problem(eps)
    u = solve_dirichlet(system, dirichlet_values(system.mesh, data))
    total = sum(solve_dirichlet(system, dirichlet_values(system.mesh, data.only(ell))).values
                for ell in range(system.cs.m))
    diff = float(np.max(np.abs(u.values - total)))
    tol = 10 * 1e-10 * max(1.0, float(np.max(np.abs(u.values))))
    assert diff <= tol, f"superposition defect {diff:.3e} exceeds {tol:.1e}"
    _announce(9, f"max nodal superposition defect {diff:.2e} <= {tol:.1e}")


# -- criterion 10: determinism -------------------------------------------------------

def test_criterion10_byte_identical_reports(tmp_path):
    args = ["sweep", "--seed", "123"]
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert cli_run([*args, "--out", str(out1)]) == 0
    assert cli_run([*args, "--out", str(out2)]) == 0
    b1 = (out1 / "report.json").read_bytes()
    b2 = (out2 / "report.json").read_bytes()
    assert b1 == b2, "two identical sweep runs produced different report.json"
    _announce(10, f"report.json byte-identical across runs ({len(b1)} bytes)")
