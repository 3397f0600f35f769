import dataclasses
import weakref

import numpy as np
import pytest

import thingap.auxiliary as auxiliary
import thingap.verify as verify
from thingap.mesh import generate, grade, refine, with_midpoints
from thingap.verify import (Check, PlanError, SweepPlan, check_coefficients,
                            check_energy_scaling, fit_rate, max_over_min, run_solve, run_sweep)


# a cut-down plan that keeps unit tests fast; acceptance runs the full one
SMALL_PLAN = SweepPlan(sweep_epsilons=(1e-1, 3e-2, 1e-2), mesh_layers=8, mesh_xrange=0.75)


@pytest.fixture(scope="module")
def small_report():
    return run_sweep(SMALL_PLAN)


def by_name(checks) -> dict:
    return {c.name: c for c in checks}


def envelope_constant(plan, r):
    """The profile envelope constant, recomputed here from the record's profile
    pairs and the plan's data jump."""
    xp, grad = np.array(r["profile"]).T
    data = plan.boundary_data(plan.geometry(r["epsilon"]))
    jumps = np.linalg.norm(data.jump(xp), axis=1)
    denom = jumps / (r["epsilon"] + np.abs(xp) ** (1 + plan.gamma)) + r["norm_terms"]
    return float(np.max(grad / denom))


def test_fit_rate_exact_inverse():
    pairs = [(s, 1.0 / s) for s in (1.0, 0.5, 0.25, 0.125)]
    slope, half = fit_rate(pairs)
    assert slope == pytest.approx(-1.0, abs=1e-12)
    assert half == pytest.approx(0.0, abs=1e-10)


def test_fit_rate_exact_power():
    pairs = [(s, 7.0 * s ** (2.0 / 3.0)) for s in (2.0, 1.0, 0.3, 0.07)]
    slope, _ = fit_rate(pairs)
    assert slope == pytest.approx(2.0 / 3.0, rel=1e-12)


def test_fit_rate_with_noise():
    rng = np.random.default_rng(42)
    scales = np.logspace(0, -5, 11)
    vals = scales**-1.0 * np.exp(rng.normal(0, 0.05, size=scales.size))
    slope, half = fit_rate(list(zip(scales, vals)))
    assert slope == pytest.approx(-1.0, abs=0.05)
    assert half > 0


def test_fit_rate_rejects_bad_input():
    with pytest.raises(PlanError):
        fit_rate([(1.0, 1.0), (0.5, 2.0)])
    with pytest.raises(PlanError):
        fit_rate([(1.0, 1.0), (0.5, -2.0), (0.25, 4.0)])
    with pytest.raises(PlanError, match="distinct scales"):
        fit_rate([(0.04, 1.0), (0.04, 2.0), (0.04, 3.0)])


def test_plan_validation():
    with pytest.raises(PlanError):
        SweepPlan(sweep_epsilons=(1e-1, 1e-2)).validate()
    with pytest.raises(PlanError):
        SweepPlan(sweep_epsilons=(1e-2, 3e-2, 1e-1)).validate()
    with pytest.raises(PlanError):
        SweepPlan(system_kind="nonsense").validate()
    with pytest.raises(PlanError):
        SweepPlan(gamma=1.2).validate()
    for zprimes in ((0.04, 0.04, 0.08), (0.0, 0.04, 0.08), (-0.04, 0.04, 0.08)):
        with pytest.raises(PlanError, match="energy z'"):
            SweepPlan(energy_zprimes=zprimes).validate()


def test_plans_built_from_python_are_checked_when_built(monkeypatch):
    # a plan is validated as it is built, before any command can allocate or
    # mesh for it, and the error names the key at fault
    monkeypatch.setattr(verify, "generate", lambda *args: pytest.fail("meshed"))
    with pytest.raises(PlanError, match=r"'system\.m': '100000000' \(must be <= 4\)"):
        check_coefficients(SweepPlan(system_kind="identity", system_m=10**8))
    with pytest.raises(PlanError, match=r"^mesh\.layers must be >= 4, got 2$"):
        run_solve(SweepPlan(mesh_layers=2))
    with pytest.raises(PlanError, match=r"^energy\.layers must be >= 4"):
        dataclasses.replace(SMALL_PLAN, energy_layers=3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        SMALL_PLAN.mesh_layers = 2


def test_boundary_constants_beyond_m_must_be_zero():
    geom = SweepPlan().geometry(0.1)
    with pytest.raises(PlanError, match="beyond the system's 2 components"):
        SweepPlan(bc_phi=(1.0, 0.0, 5.0)).boundary_data(geom)
    with pytest.raises(PlanError, match="beyond the system's 2 components"):
        SweepPlan(bc_psi=(0.0, 0.0, -1.0)).boundary_data(geom)
    # the default Lame list (1, 0) on a one-component system drops only a zero
    data = SweepPlan(system_kind="identity", system_m=1).boundary_data(geom)
    assert data.m == 1
    assert SweepPlan(bc_phi=(1.0,)).boundary_data(geom).m == 2


def test_sweep_blowup_rate_small(small_report):
    doc, checks = small_report
    assert doc["fit"]["rho"] == pytest.approx(1.0, abs=0.15)
    assert not doc["fit"]["degenerate"]
    for r in doc["per_epsilon"]:
        assert np.isfinite(r["M_center"])
    reliability = by_name(checks)["reliability"]
    assert reliability.verdict == "pass", reliability.reason()


def test_sweep_reports_are_deterministic():
    assert run_sweep(SMALL_PLAN) == run_sweep(SMALL_PLAN)


def test_sweep_threads_match_serial(small_report):
    assert run_sweep(SMALL_PLAN, threads=3) == small_report


def test_sweep_solves_each_epsilon_twice_and_the_largest_once_more(monkeypatch):
    # one solve on the sweep mesh and one on its stations level, and one on
    # the layers level at the largest epsilon, nothing more
    import thingap.solver as solver
    calls = []
    exact = solver.solve_dirichlet

    def spy(system, bc):
        calls.append(system.mesh.geom.epsilon)
        return exact(system, bc)

    monkeypatch.setattr(solver, "solve_dirichlet", spy)
    monkeypatch.setattr(verify, "solve_dirichlet", spy)
    run_sweep(SMALL_PLAN)
    eps = SMALL_PLAN.sweep_epsilons
    assert sorted(calls, reverse=True) == [eps[0]] + [e for e in eps for _ in range(2)]


def test_each_mesh_family_is_graded_once_per_epsilon(monkeypatch):
    # the band budget and every mesh built at one epsilon, the sweep's refined
    # levels included, read the same graded stations
    graded = []
    exact = verify.grade

    def spy(geom, aspect, dxmax, xrange):
        graded.append((geom.epsilon, aspect, xrange))
        return exact(geom, aspect, dxmax, xrange)

    monkeypatch.setattr(verify, "grade", spy)
    plan = dataclasses.replace(SMALL_PLAN, energy_layers=8, energy_aspect=0.5,
                               energy_zprimes=(0.1, 0.14, 0.2))
    run_sweep(plan)
    check_energy_scaling(plan)
    eps = plan.sweep_epsilons
    assert graded == ([(e, plan.mesh_aspect, plan.mesh_xrange) for e in eps]
                      + [(e, plan.energy_aspect, plan.energy_xrange) for e in eps])


def test_each_mesh_level_is_released_before_the_next_is_assembled(monkeypatch):
    # the coarse system (and its factorization) is unreachable when the
    # stations level is assembled, that one when the layers level is, and
    # each level's when the next epsilon's sweep mesh is
    built = []
    exact = verify.assemble

    def spy(mesh, cs):
        assert all(ref() is None for ref in built)
        system = exact(mesh, cs)
        built.append(weakref.ref(system))
        return system

    monkeypatch.setattr(verify, "assemble", spy)
    run_sweep(SMALL_PLAN)
    assert len(built) == 2 * len(SMALL_PLAN.sweep_epsilons) + 1


@pytest.mark.parametrize("threads", [1, 2])
def test_refined_levels_refine_stations_everywhere_and_layers_at_the_largest(
        monkeypatch, threads):
    # per epsilon: the sweep mesh (S, L) and its stations level (2S - 1, L);
    # at the largest epsilon alone also the layers level (S, 2L)
    built = []
    exact = verify.assemble

    def spy(mesh, cs):
        built.append((mesh.geom.epsilon, mesh.stations.size, mesh.layers))
        return exact(mesh, cs)

    monkeypatch.setattr(verify, "assemble", spy)
    doc, _ = run_sweep(SMALL_PLAN, threads=threads)
    L = SMALL_PLAN.mesh_layers
    want = []
    eps = SMALL_PLAN.sweep_epsilons
    for e in eps:
        S = grade(SMALL_PLAN.geometry(e), SMALL_PLAN.mesh_aspect, SMALL_PLAN.mesh_dxmax,
                  SMALL_PLAN.mesh_xrange).size
        want += [(e, S, L), (e, 2 * S - 1, L)] + [(e, S, 2 * L)] * (e == eps[0])
    assert sorted(built) == sorted(want)
    level = doc["layers_level"]
    assert (level["epsilon"], level["layers"]) == (SMALL_PLAN.sweep_epsilons[0], 2 * L)
    assert list(level) == ["epsilon", "layers", "M_center", "reliability_change"]


def _no_assembly(*args):
    raise AssertionError("assembled")


def test_band_budget_covers_the_refinement_before_assembly(monkeypatch):
    _, data, system = SMALL_PLAN.problem(0.1)
    n = int((~verify.dirichlet_values(system.mesh, data).dof_mask()).sum())
    m, L = system.cs.m, system.mesh.layers
    # the budget is exactly the sweep mesh's band n (kd + 1) 8 bytes plus its
    # element matrices
    monkeypatch.setattr(verify, "MAX_BAND_BYTES", n * (L + 1) * m * 8 + system.E.nbytes)
    SMALL_PLAN.problem(0.1)
    monkeypatch.setattr(verify, "assemble", _no_assembly)
    with pytest.raises(PlanError, match="mesh.layers, mesh.aspect and mesh.dxmax at "
                                        "epsilon = 0.1: the refined mesh's"):
        SMALL_PLAN.problem(0.1, refinement=True)


def _level_bytes(mesh, cs, data):
    """Band n (kd + 1) 8 bytes plus element matrices of ``mesh``, assembled."""
    system = verify.assemble(mesh, cs)
    n = int((~verify.dirichlet_values(mesh, data).dof_mask()).sum())
    return n * (mesh.layers + 1) * cs.m * 8 + system.E.nbytes


def test_band_budget_counts_the_levels_the_sweep_builds(monkeypatch):
    # a budget that holds the stations level and the layers level at the
    # largest epsilon admits the plan, though not the uniform refinement
    # (2S - 1, 2L), which the sweep does not build
    _, data, system = SMALL_PLAN.problem(0.1)
    mesh, cs = system.mesh, system.cs
    levels = [_level_bytes(generate(mesh.geom, with_midpoints(mesh.stations), mesh.layers),
                           cs, data),
              _level_bytes(generate(mesh.geom, mesh.stations, 2 * mesh.layers), cs, data)]
    assert _level_bytes(refine(mesh), cs, data) > max(levels)
    monkeypatch.setattr(verify, "MAX_BAND_BYTES", max(levels))
    SMALL_PLAN.problem(0.1, refinement=True)
    monkeypatch.setattr(verify, "MAX_BAND_BYTES", max(levels) - 1)
    name = "stations" if levels[0] > levels[1] else "layers"
    with pytest.raises(PlanError, match=rf"layers \({name} level\) need"):
        SMALL_PLAN.problem(0.1, refinement=True)


def test_band_budget_counts_the_element_matrices(monkeypatch):
    # a budget that holds the band but not the element matrices beside it
    _, data, system = SMALL_PLAN.problem(0.1)
    n = int((~verify.dirichlet_values(system.mesh, data).dof_mask()).sum())
    band = n * (system.mesh.layers + 1) * system.cs.m * 8
    monkeypatch.setattr(verify, "MAX_BAND_BYTES", band + system.E.nbytes - 1)
    monkeypatch.setattr(verify, "assemble", _no_assembly)
    with pytest.raises(PlanError, match=f"the mesh's .* need a {band / 2**20:.0f} MiB band and "
                                        f"{system.E.nbytes / 2**20:.0f} MiB of element matrices"):
        SMALL_PLAN.problem(0.1)


@pytest.mark.parametrize("key", ["mesh", "energy"])
def test_band_budget_refuses_a_huge_layer_count_before_the_mesh_is_built(monkeypatch, key):
    # a million layers would take gigabytes of vertices and triangles before
    # the band were ever sized: only the stations may be built
    def no_build(*args):
        raise AssertionError("mesh built")

    monkeypatch.setattr(verify, "generate", no_build)
    plan = dataclasses.replace(SMALL_PLAN, **{f"{key}_layers": 10**6})
    with pytest.raises(PlanError, match=rf"{key}\.layers, {key}\.aspect and mesh\.dxmax at "
                                        r"epsilon = 0\.1: the mesh's \d+ stations of 1000000 "
                                        r"layers need a \d+ MiB band"):
        plan.problem(0.1, energy=key == "energy")


def test_upper_constant_dominates_lower_constant(small_report):
    # both constants normalize the same solution: at the centerline the upper
    # envelope exceeds the pure-jump lower envelope
    for r in small_report[0]["per_epsilon"]:
        assert r["C_upper"] >= r["C_lower"] * (1.0 - 1e-12)


def test_profile_check_stability(small_report):
    doc, checks = small_report
    for r in doc["per_epsilon"]:
        assert r["C_profile"] == envelope_constant(SMALL_PLAN, r)
        assert r["C_upper"] >= r["C_profile"]
    profile = by_name(checks)["profile"]
    assert profile.value == max_over_min([r["C_profile"] for r in doc["per_epsilon"]]) < 3.0


def test_profile_check_fails_under_fault_injection(monkeypatch):
    # scaling every probed gradient by 1/sqrt(eps) destroys the constant
    exact = verify.gradient_at
    monkeypatch.setattr(verify, "gradient_at",
                        lambda sol, x: exact(sol, x) / np.sqrt(sol.mesh.geom.epsilon))
    doc, checks = run_sweep(SMALL_PLAN)
    for r in doc["per_epsilon"]:
        assert r["C_profile"] == envelope_constant(SMALL_PLAN, r)
    assert max_over_min([r["C_profile"] for r in doc["per_epsilon"]]) >= 3.0
    assert by_name(checks)["profile"].verdict == "fail"


def test_max_over_min():
    assert max_over_min([2.0, 1.0, 4.0]) == 4.0
    assert max_over_min([0.0, 1.0]) == float("inf")
    assert max_over_min(np.array([3.0, 1.5])) == 2.0


def lower_bound(sweep) -> Check:
    return by_name(sweep[1])["lower_bound"]


def test_lower_bound_check(small_report):
    lb = lower_bound(small_report)
    lower = [r["C_lower"] for r in small_report[0]["per_epsilon"]]
    assert lb.verdict == "pass"
    assert lb.value == max_over_min(lower)
    assert min(lower) > 0


@pytest.mark.parametrize("value, verdict", [
    (float("nan"), "fail"), (float("inf"), "fail"), (None, "n/a"), (2.0, "pass"), (3.0, "fail"),
])
def test_check_verdicts(value, verdict):
    # a non-finite value fails, whichever way its comparison would go
    assert Check("x", value, "<", 3.0, "max/min").verdict == verdict
    assert Check("x", value, "in", (-1.0, 2.0), "exponent").verdict == verdict


def test_check_reasons_and_record():
    assert Check("p", 1.2134, "<", 3.0, "max/min").reason() == "max/min 1.213 < 3"
    assert Check("p", 8.137, "<", 3.0, "max/min").reason() == "max/min 8.137, not < 3"
    assert Check("e", 0.7, "in", (0.5, 0.9), "exponent").to_dict() == \
        {"value": 0.7, "relation": "in", "bound": (0.5, 0.9)}
    assert Check("l", None, "<", 3.0, "max/min").to_dict() == {"relation": "<", "bound": 3.0}


def test_scalar_identity_sweep_same_blowup_rate():
    # the scalar special case shows the same 1/eps centerline growth, and the
    # lower-bound constant sits near 1 because the vertical derivative of the
    # crossing profile is exactly the inverse gap width
    plan = dataclasses.replace(SMALL_PLAN, system_kind="identity", system_m=1,
                               bc_phi=(1.0,), bc_psi=(0.0,))
    report = run_sweep(plan)
    assert report[0]["fit"]["rho"] == pytest.approx(1.0, abs=0.15)
    assert lower_bound(report).verdict == "pass"
    for r in report[0]["per_epsilon"]:
        assert 0.8 <= r["C_lower"] <= 1.1


def test_degenerate_sweep_equal_constants():
    plan = dataclasses.replace(SMALL_PLAN, bc_phi=(1.0, 0.0), bc_psi=(1.0, 0.0))
    report = run_sweep(plan)
    assert report[0]["fit"] == {"rho": 0.0, "rho_halfwidth": 0.0, "degenerate": True}
    assert lower_bound(report).verdict == "n/a"      # no jump, hypothesis fails
    # the spreads and drifts of a constant solution are ratios of roundoff
    assert [c.verdict for c in report[1]] == ["n/a"] * 3


def test_energy_scaling_structure():
    plan = dataclasses.replace(SMALL_PLAN, energy_layers=8, energy_aspect=0.5,
                               energy_zprimes=(0.1, 0.14, 0.2))
    doc, checks = check_energy_scaling(plan)
    assert list(doc) == ["inner_center", "inner_edge", "outer", "degenerate", "center_law"]
    assert not doc["degenerate"]
    for block, expected in (("inner_center", 2 / 3), ("inner_edge", 2 / 3), ("outer", 1.0)):
        fit = doc[block]
        assert list(fit) == ["table", "exponent", "halfwidth", "expected"]
        assert len(fit["table"]) == 3
        assert np.isfinite(fit["exponent"])
        assert fit["expected"] == pytest.approx(expected)
    assert [c.name for c in checks] == ["edge_in_band", "outer_in_band", "center_bound"]
    assert list(doc["center_law"]["verdicts"]) == ["bound_holds", "exponent_in_band",
                                                   "compensated_stable"]


def test_energy_scaling_degenerate_flag():
    plan = dataclasses.replace(SMALL_PLAN, bc_phi=(1.0, 0.0), bc_psi=(1.0, 0.0),
                               energy_layers=8, energy_aspect=0.5,
                               energy_zprimes=(0.1, 0.14, 0.2))
    doc, checks = check_energy_scaling(plan)
    assert doc["degenerate"]
    assert doc["inner_center"]["exponent"] is None
    assert doc["note"] == "degenerate data: remainder vanishes, fits skipped"
    assert "center_law" not in doc
    assert {c.verdict for c in checks} == {"n/a"}


def test_energy_scaling_rejects_bad_zprimes():
    # z' = 0 is always fitted; the outer values must be positive and lie
    # beyond the neck scale; a z' <= 0 is refused when the plan is built
    with pytest.raises(PlanError, match="positive and distinct"):
        dataclasses.replace(SMALL_PLAN, energy_zprimes=(0.0, 0.14, 0.2))
    plan = dataclasses.replace(SMALL_PLAN, energy_zprimes=(1e-3, 0.14, 0.2))
    with pytest.raises(PlanError, match="not beyond the neck scale"):
        check_energy_scaling(plan)


@pytest.mark.parametrize("zprimes, message", [
    ((0.001, 0.002, 0.003), "not beyond the neck scale"),
    ((0.5, 0.6, 0.7), "leaves the meshed strip"),
    ((0.04, 0.08), "at least 3 outer z'"),
])
def test_energy_scaling_rejects_bad_zprimes_before_assembly(monkeypatch, zprimes, message):
    def no_assembly(*args):
        raise AssertionError("assembled")

    monkeypatch.setattr(verify, "assemble", no_assembly)
    with pytest.raises(PlanError, match=message):
        check_energy_scaling(dataclasses.replace(SweepPlan(), energy_zprimes=zprimes))


@pytest.mark.parametrize("measure", [run_sweep, check_energy_scaling])
def test_crossing_boundaries_are_refused_before_the_first_assembly(monkeypatch, measure):
    # the width eps + (c1 - c2)|x'|^{1+gamma} grows with eps, so the smallest
    # epsilon decides, and no larger one is solved first
    built = []
    exact = verify.assemble
    monkeypatch.setattr(verify, "assemble", lambda *args: built.append(1) or exact(*args))
    plan = dataclasses.replace(SweepPlan(), profile_c1=-0.006, profile_c2=0.006)
    with pytest.raises(PlanError, match="at epsilon = 0.001: the boundaries cross"):
        measure(plan)
    assert built == []


def test_record_serialization_roundtrip(small_report):
    d = small_report[0]
    assert list(d) == ["plan", "fit", "per_epsilon", "layers_level"]
    assert list(d["fit"]) == ["rho", "rho_halfwidth", "degenerate"]
    eps0 = d["per_epsilon"][0]
    assert list(eps0) == ["epsilon", "M_center", "centerline_sup", "centerline_min", "u_l2",
                          "norm_terms", "C_upper", "C_lower", "C_profile", "M_center_refined",
                          "reliability_change", "flags", "centerline", "profile"]
    assert eps0["epsilon"] == SMALL_PLAN.sweep_epsilons[0]
    assert len(eps0["profile"]) == verify.PROBES_PROFILE
    assert len(eps0["centerline"]) == verify.PROBES_CENTERLINE


def test_samplers_take_component_0_alone(monkeypatch):
    # prop21 and oracle-suite sample component 0 as one-component data, so their
    # memory does not grow with system.m, and their documents do not change with it
    seen = []
    growth, gradients = verify.check_seminorm_growth, verify.field_gradients
    monkeypatch.setattr(verify, "check_seminorm_growth", lambda geom, data, *a, **k:
                        seen.append(data.m) or growth(geom, data, *a, **k))
    monkeypatch.setattr(verify, "field_gradients",
                        lambda geom, data, X: seen.append(data.m) or gradients(geom, data, X))
    plans = [dataclasses.replace(SMALL_PLAN, system_kind="identity", system_m=m,
                                 prop21_pairs=200) for m in (1, 4)]
    prop21 = [verify.check_prop21(plan) for plan in plans]
    assert prop21[0] == prop21[1]
    verify.check_oracles(plans[1])
    assert seen and set(seen) == {1}


@pytest.mark.parametrize("phi, psi", [((1.0, 0.0), (1.0, 0.0)), ((0.0, 0.0), (0.0, 0.0)),
                                      ((0.0, 1.0), (0.0, 0.0))],
                         ids=["equal", "zero", "component1"])
def test_prop21_on_a_vanishing_extension_gradient_is_not_measured(phi, psi):
    # component 0's data have no jump, so every sampled seminorm and every
    # constant is 0: a max/min over them measures nothing, neither inf nor a pass
    plan = dataclasses.replace(SMALL_PLAN, bc_phi=phi, bc_psi=psi, prop21_pairs=200)
    doc, (check,) = verify.check_prop21(plan)
    assert doc["per_epsilon_max_constant"] == [0.0] * 3
    assert doc["stability"] is None
    assert check.verdict == "n/a"
    assert "component 0's extension gradient vanishes" in check.reason()
    assert check.to_dict()["note"] == "component 0's extension gradient vanishes"


def test_oracle_seminorm_on_a_vanishing_extension_gradient_is_not_measured():
    # a dense reference of 0 makes "sampled >= 0.8 dense" hold for any sample
    doc, checks = verify.check_oracles(dataclasses.replace(SMALL_PLAN, bc_phi=(0.0, 0.0)))
    assert doc["seminorm_dense"] == 0
    check = by_name(checks)["seminorm_sampling"]
    assert check.verdict == "n/a"
    assert "component 0's extension gradient vanishes" in check.reason()


def test_prop21_draws_each_random_stream_once(monkeypatch):
    # the 45 sampler calls of prop21 share one (pairs, seed): its 13 unit streams
    # (5 point tags x 2 variables, 3 direction scales) are drawn once, not per call
    auxiliary._unit_streams.cache_clear()
    made = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda *a, **k: made.append(a) or
                        default_rng(*a, **k))
    doc, _ = verify.check_prop21(SweepPlan())
    assert len(doc["rows"]) == 45
    assert len(made) == 13


def test_t_quantile_matches_scipy():
    special = pytest.importorskip("scipy.special")
    for df in range(1, 201):
        ref = float(special.stdtrit(df, 0.975))
        assert abs(verify.t_quantile(df, 0.975) - ref) <= 1e-14 * ref, df
