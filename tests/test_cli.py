import ast
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import types
from pathlib import Path

import numpy as np
import pytest

from hypothesis import assume, given, settings, strategies as st

import thingap.auxiliary as auxiliary
import thingap.cli as cli
import thingap.verify as verify
from thingap.cli import (COMMANDS, ConfigError, SCHEMA, dumps, effective_config, emit_tables,
                         export_solution_text, fmt_float, parse_config_text, run)
from thingap.mesh import MeshError, generate, grade
from thingap.verify import (MAX_COMPONENTS, MAX_SAMPLES, PROBES_PROFILE, PlanError, SweepPlan,
                           run_solve)


SMALL = ["--set", "sweep.epsilons=0.1,0.03,0.01", "--set", "mesh.layers=8",
         "--set", "mesh.xrange=0.75"]


def test_parse_config_text_and_comments():
    cfg = parse_config_text("# a comment\n gamma = 0.25 \n\nseed=3 # trailing\n")
    assert cfg == {"gamma": "0.25", "seed": "3"}


def test_unknown_key_is_named():
    with pytest.raises(ConfigError, match="blowup.rate"):
        parse_config_text("blowup.rate = 1")
    with pytest.raises(ConfigError, match="mesh.layerz"):
        effective_config(None, ["mesh.layerz=4"], None)


def test_missing_config_file_exits_2(tmp_path, capsys):
    code = run(["sweep", "--config", str(tmp_path / "nope.cfg"),
                "--out", str(tmp_path)])
    assert code == 2
    assert "not found" in capsys.readouterr().err


def test_inconsistent_plan_exits_2(tmp_path):
    code = run(["sweep", "--set", "sweep.epsilons=0.1,0.01",
                "--out", str(tmp_path)])
    assert code == 2


def test_defaults_cover_every_key():
    plan = effective_config(None, [], None)
    assert plan == SweepPlan()
    assert plan.sweep_epsilons == (1e-1, 3e-2, 1e-2, 3e-3, 1e-3)


def test_every_key_is_a_plan_field():
    # one key per field, the name with its first "_" turned into "."
    names = [f.name for f in dataclasses.fields(SweepPlan)]
    assert list(SCHEMA) == [name.replace("_", ".", 1) for name in names]
    assert [SCHEMA[key].name for key in SCHEMA] == names
    assert len(SCHEMA) == 25


def test_float_formatting_roundtrips():
    for x in (0.1, 1e-300, 2 / 3, 9.123456789012345e5, -1.0):
        assert float(fmt_float(x)) == x
    assert fmt_float(float("nan")) == "null"


def test_dumps_is_valid_json():
    import json
    obj = {"a": [1, 2.5, None, True], "b": {"c": "x\"y\n"}, "d": 0.1}
    parsed = json.loads(dumps(obj))
    assert parsed["a"][1] == 2.5
    assert parsed["b"]["c"] == 'x"y\n'
    assert parsed["d"] == 0.1


def test_sweep_writes_report_and_tables(tmp_path):
    out = tmp_path / "o"
    code = run(["sweep", "--out", str(out), *SMALL])
    assert code == 0
    report = (out / "report.json").read_text()
    assert '"rho"' in report
    sweep = (out / "sweep.csv").read_text().strip().split("\n")
    assert sweep[0] == "epsilon,M_center,C_upper,C_lower,flags"
    assert len(sweep) == 1 + 3
    prof = (out / "profile_0.1.csv").read_text().strip().split("\n")
    assert prof[0] == "x,grad_norm"
    assert len(prof) == 1 + PROBES_PROFILE


def test_sweep_csv_roundtrips_report_values(tmp_path):
    import json
    out = tmp_path / "o"
    assert run(["sweep", "--out", str(out), *SMALL]) == 0
    doc = json.loads((out / "report.json").read_text())
    rows = (out / "sweep.csv").read_text().strip().split("\n")[1:]
    for row, rec in zip(rows, doc["per_epsilon"]):
        eps, m, cu, cl, _flags = row.split(",")
        assert float(eps) == rec["epsilon"]
        assert float(m) == rec["M_center"]
        assert float(cu) == rec["C_upper"]
        assert float(cl) == rec["C_lower"]


def test_sweep_report_has_no_sweep_mesh_energy(tmp_path):
    # the remainder energy is measured by energy-scaling, not by the sweep
    import json
    assert run(["sweep", "--out", str(tmp_path), *SMALL]) == 0
    doc = json.loads((tmp_path / "report.json").read_text())
    assert list(doc) == ["plan", "fit", "per_epsilon", "layers_level", "checks", "verdicts"]
    assert not any("energy_E0" in rec for rec in doc["per_epsilon"])


def test_emit_tables_empty_report(tmp_path):
    written = emit_tables({"per_epsilon": []}, tmp_path)
    assert "sweep.csv" in written
    assert (tmp_path / "sweep.csv").read_text().strip() == \
        "epsilon,M_center,C_upper,C_lower,flags"


def test_config_roundtrip_reproduces_report(tmp_path):
    # the report's plan block, written back out as a config, reproduces the report
    out1 = tmp_path / "a"
    assert run(["sweep", "--out", str(out1), *SMALL, "--seed", "5"]) == 0
    plan = json.loads((out1 / "report.json").read_text())["plan"]
    assert list(plan) == list(SCHEMA)
    lines = [f"{key} = {','.join(map(str, value)) if isinstance(value, list) else value}"
             for key, value in plan.items()]
    cfg_path = tmp_path / "eff.cfg"
    cfg_path.write_text("\n".join(lines) + "\n")
    out2 = tmp_path / "b"
    assert run(["sweep", "--config", str(cfg_path), "--out", str(out2)]) == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


def test_env_var_overrides_out(tmp_path, monkeypatch):
    target = tmp_path / "env_out"
    monkeypatch.setenv("THINGAP_OUT", str(target))
    code = run(["validate-geometry", "--out", str(tmp_path / "ignored")])
    assert code == 0
    assert (target / "geometry.json").exists()
    assert not (tmp_path / "ignored").exists()


def test_solve_exports(tmp_path):
    out = tmp_path / "s"
    code = run(["solve", "--out", str(out), "--set", "epsilon=0.05",
                "--set", "mesh.layers=6", "--set", "mesh.xrange=0.75"])
    assert code == 0
    sol = (out / "solution.txt").read_text().strip().split("\n")
    head = sol[0].split()
    assert head[0] == "vertices" and head[2] == "m"
    n, m = int(head[1]), int(head[3])
    assert len(sol) == 1 + n
    assert len(sol[1].split()) == m
    grads = (out / "gradients.csv").read_text().strip().split("\n")
    assert grads[0] == "x,y,comp,dudx,dudy"
    x, y, comp, dudx, dudy = grads[1].split(",")
    float(x), float(y), float(dudx), float(dudy)
    assert comp in ("0", "1")
    mesh_text = (out / "mesh.txt").read_text()
    assert mesh_text.startswith("vertices ")


def test_validate_commands_pass(tmp_path):
    assert run(["validate-geometry", "--out", str(tmp_path / "g")]) == 0
    assert run(["validate-coefficients", "--out", str(tmp_path / "c")]) == 0


def test_threads_bound_blas_pools_during_a_command(tmp_path, monkeypatch):
    import thingap.cli as cli
    from thingap import _blas

    pools = _blas.pools()
    if not pools:
        pytest.skip("no OpenBLAS loaded")
    before = [get() for _, get in pools]
    seen = []

    def record(plan, outdir, threads):
        seen.append([get() for _, get in pools])
        return "geometry.json", {}, []

    monkeypatch.setitem(cli.COMMANDS, "validate-geometry", record)
    assert run(["validate-geometry", "--out", str(tmp_path), "--threads", "1"]) == 0
    assert run(["validate-geometry", "--out", str(tmp_path), "--threads", "64"]) == 0
    assert seen == [[1] * len(pools)] * 2           # one BLAS thread whatever --threads says
    assert [get() for _, get in pools] == before


def test_sweep_report_bytes_do_not_depend_on_threads(tmp_path):
    outs = [tmp_path / "t1", tmp_path / "t2"]
    for out, threads in zip(outs, ("1", "2")):
        assert run(["sweep", "--out", str(out), *SMALL, "--threads", threads]) == 0
    assert (outs[0] / "report.json").read_bytes() == (outs[1] / "report.json").read_bytes()


def _finite(doc) -> bool:
    """No null, NaN or infinity anywhere in a parsed JSON document."""
    if isinstance(doc, dict):
        return all(_finite(v) for v in doc.values())
    if isinstance(doc, list):
        return all(_finite(v) for v in doc)
    return doc is not None and (not isinstance(doc, float) or math.isfinite(doc))


def test_default_sweep_and_energy_artifacts_are_finite(tmp_path):
    # what the benchmark checks of every JSON artifact, here of every command;
    # report.json is also byte-identical with a second thread
    runs = {"t1": ["sweep"], "t2": ["sweep", "--threads", "2"], "energy": ["energy-scaling"],
            **{command: [command, *argv] for command, (_, argv) in SMALL_RUNS.items()}}
    for name, argv in runs.items():
        assert run([*argv, "--out", str(tmp_path / name)]) == 0
        docs = [json.loads(p.read_text()) for p in (tmp_path / name).glob("*.json")]
        assert docs and all(_finite(d) for d in docs), name
    assert (tmp_path / "t1" / "report.json").read_bytes() == \
        (tmp_path / "t2" / "report.json").read_bytes()


def test_boundary_data_at_its_bound_stays_finite(tmp_path):
    # |bc.phi|, |bc.psi| <= verify.BC_MAX: every solving command still writes
    # finite numbers there
    for command in ("solve", "sweep", "prop21", "energy-scaling", "oracle-suite"):
        out = tmp_path / command
        argv = [command, "--out", str(out), *SMALL_RUNS[command][1],
                "--set", "bc.phi=1e100", "--set", "bc.psi=-1e100"]
        assert run(argv) == 0, command
        assert all(_finite(json.loads(p.read_text())) for p in out.glob("*.json")), command


def test_prop21_command(tmp_path):
    out = tmp_path / "p"
    code = run(["prop21", "--out", str(out), "--set", "sweep.epsilons=0.1,0.03,0.01",
                "--set", "prop21.pairs=800"])
    assert code == 0
    assert (out / "prop21.json").exists()


def test_duplicate_energy_zprimes_exit_2(tmp_path, capsys):
    code = run(["energy-scaling", "--out", str(tmp_path),
                "--set", "energy.zprimes=0.04,0.04,0.04"])
    assert code == 2
    err = capsys.readouterr().err
    assert "energy z' values must be positive and distinct" in err
    assert "Traceback" not in err


def test_energy_scaling_measures_component_0_only(tmp_path):
    # the single-component restriction comes from the data: Lame's second
    # component of the data leaves every energy artifact unchanged
    outs = []
    for phi in ("1,0.5", "1,0"):
        outs.append(tmp_path / phi)
        assert run(["energy-scaling", "--out", str(outs[-1]), "--set", f"bc.phi={phi}"]) == 0
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir()) and "energy.json" in names
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_readme_key_list_matches_schema():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("Keys:\n\n```\n", 1)[1].split("```", 1)[0]
    listed = []
    for line in block.splitlines():
        if line and not line[0].isspace():
            listed += [k.strip() for k in re.split(r"\s{2,}", line)[0].split(",")]
    assert len(listed) == len(set(listed))
    assert set(listed) == set(SCHEMA)


def test_solution_text_is_one_fmt_float_line_per_vertex():
    # the bulk format writes what fmt_float writes, across the 4096-line blocks,
    # and null for the non-finite values
    rng = np.random.default_rng(4)
    for values in (rng.normal(size=(9000, 2)) * 10.0 ** rng.integers(-300, 300, size=(9000, 2)),
                   np.array([[1.5, np.nan], [-np.inf, 0.1], [np.inf, -0.0]])):
        sol = types.SimpleNamespace(values=values)
        want = [f"vertices {values.shape[0]} m 2"] + [" ".join(fmt_float(v) for v in row)
                                                      for row in values]
        assert export_solution_text(sol) == "\n".join(want) + "\n"


def test_cli_imports_no_measurement_code():
    # the measurements live in thingap.verify, which tier-1 calls: the CLI
    # imports no solver, oracle, coefficient or sampling code, no probe or
    # fit helper, and only the error classes of auxiliary and geometry
    source = Path(__file__).resolve().parents[1] / "src" / "thingap" / "cli.py"
    imported = {}
    for node in ast.walk(ast.parse(source.read_text())):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            module = getattr(node, "module", None) or ""
            for a in node.names:
                imported.setdefault((module or a.name).removeprefix("thingap."), set()).add(a.name)
    assert {"solver", "oracle", "coefficients", "mesh"}.isdisjoint(imported)
    for module in ("auxiliary", "geometry"):
        assert all(name.endswith("Error") for name in imported.get(module, ())), module
    assert set().union(*imported.values()).isdisjoint({
        "check_seminorm_growth", "holder_seminorm", "field_gradients", "field_values",
        "BoundaryData", "check_ellipticity", "check_holder", "identity_coefficients",
        "lame_as_general", "LocalRegion", "generate", "AffineCase", "brute_force_seminorm",
        "finite_difference_reference", "assemble", "grid_distance", "solve_dirichlet",
        "gradient_at", "dirichlet_values", "_frob", "probe_points", "center_law",
        "_run_one_epsilon", "_refined_neck", "fit_rate", "remainder_energy", "Check"})


def test_traced_commands_keep_benchmark_hooks(tmp_path):
    # the benchmark wraps these names from outside src/ by replacing module
    # attributes; a rename, or a call that bypasses the module-global name,
    # breaks it.  Every mesh a command solves on, refined levels included, is
    # built by mesh.generate, so its span counts what assembly counts
    root = Path(__file__).resolve().parents[1]
    energy = SMALL_RUNS["energy-scaling"][1]
    runs = {"sweep": ["sweep", *SMALL], "energy": ["energy-scaling", *energy],
            "oracle": ["oracle-suite"]}
    script = f"""
import json, sys
sys.path.insert(0, {str(root / 'perfbench')!r})
import thingap.cli
import spans
rec = spans.install_tracing()
codes, per_run = [], {{}}
for name, argv in {runs!r}.items():
    start = len(rec.spans)
    codes.append(thingap.cli.run([*argv, "--out", {str(tmp_path)!r} + "/" + name]))
    per_run[name] = {{}}
    for s in rec.spans[start:]:
        if s[0] in ("mesh.generate", "solver.assemble"):
            calls, triangles = per_run[name].get(s[0], (0, 0))
            per_run[name][s[0]] = (calls + 1, triangles + s[4]["triangles"])
calls = {{}}
for s in rec.spans:
    calls[s[0]] = calls.get(s[0], 0) + 1
errors = [s[0] for s in rec.spans if (s[4] or {{}}).get("error")]
dofs = spans.install_dof_counter()
codes.append(thingap.cli.run(["sweep", "--out", {str(tmp_path / 'dofs')!r}, *{SMALL!r}]))
print(json.dumps({{"codes": codes, "errors": errors, "calls": calls, "per_run": per_run,
                  "dofs": dofs[0]}}))
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    assert got["codes"] == [0, 0, 0, 0]
    assert got["errors"] == []
    for name in ("mesh.locate", "coefficients.eval_A_many", "auxiliary.field_gradients",
                 "verify.run_sweep", "verify.check_energy_scaling", "verify.fit_rate",
                 "verify.remainder_energy", "solver.assemble", "solver.solve_dirichlet",
                 "mesh.generate"):
        assert got["calls"].get(name, 0) > 0, name
    # (calls, triangles): the sweep solves 7 meshes on its 3 epsilons (levels
    # included), energy-scaling one per epsilon, oracle-suite 3
    for name, meshes in (("sweep", 7), ("energy", 5), ("oracle", 3)):
        built, assembled = (got["per_run"][name][k]
                            for k in ("mesh.generate", "solver.assemble"))
        assert built == assembled and built[0] == meshes, name
    assert got["dofs"] > 0


def test_commands_run_without_scipy_and_one_lapack_thread(tmp_path):
    # the commands reach LAPACK through _lapack's ctypes binding, loaded with
    # one OpenBLAS thread whatever OPENBLAS_NUM_THREADS says; every system they
    # solve is positive definite, so none takes banded LU, which imports scipy
    from thingap import _lapack
    if _lapack.LIBRARY is None:
        pytest.skip("no bundled OpenBLAS: _lapack is scipy's wrappers")
    root = Path(__file__).resolve().parents[1]
    kinds = [["--set", f"system.kind={kind}"] for kind in ("identity", "holder_demo")]
    commands = [["sweep", *SMALL], ["energy-scaling", "--set", "energy.layers=8"],
                ["oracle-suite"], ["prop21", "--set", "prop21.pairs=200"], ["solve"],
                *(["sweep", *SMALL, *kind] for kind in kinds),
                *(["solve", *kind] for kind in kinds),
                ["solve", "--set", "system.lambda1=1e100"]]
    script = f"""
import ctypes, json, os, sys
import thingap.cli
from thingap import _lapack
threads = ctypes.CDLL(str(_lapack.LIBRARY)).scipy_openblas_get_num_threads()
env = os.environ["OPENBLAS_NUM_THREADS"]
codes = [thingap.cli.run([*argv, "--out", {str(tmp_path)!r} + f"/{{i}}"])
         for i, argv in enumerate({commands!r})]
print(json.dumps({{"threads": threads, "env": env, "codes": codes,
                   "scipy": sorted(k for k in sys.modules if k.split(".")[0] == "scipy")}}))
"""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    assert got["threads"] == 1
    assert got["env"] == "2"
    assert all(code in (0, 1) for code in got["codes"]), got["codes"]
    assert got["scipy"] == []


@pytest.mark.parametrize("argv, message", [
    (["prop21", "--set", "prop21.s_fractions=0,0.5,1"],
     "unknown config key 'prop21.s_fractions'"),
    (["sweep", "--set", "bc.phi=1,0,5"], "beyond the system's 2 components"),
    (["sweep", "--set", "profile.c2=2"], "boundaries cross"),
    (["sweep", "--set", "mesh.xrange=0.4"], "mesh.xrange must be >= 0.5, the half-span"),
    (["solve", "--set", "mesh.xrange=1e-9"], "mesh.xrange must be >= 0.5, the half-span"),
])
def test_bad_input_exits_2_without_traceback(tmp_path, argv, message):
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "thingap.cli", *argv,
                           "--out", str(tmp_path)], env=env, cwd=tmp_path,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=120)
    assert proc.returncode == 2
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv, message", [
    (["sweep", "--set", "mesh.layers=2"], "mesh.layers must be >= 4"),
    (["sweep", "--set", "mesh.xrange=2"], "mesh.xrange must lie in (0, 1]"),
    (["sweep", "--set", "mesh.dxmax=0"], "mesh.dxmax must be positive"),
    (["sweep", "--set", "mesh.aspect=-1"], "mesh.aspect must be positive"),
    (["sweep", "--set", "probes.profile=0"], "unknown config key 'probes.profile'"),
    (["sweep", "--set", "probes.centerline=0"], "unknown config key 'probes.centerline'"),
    (["sweep", "--set", "probes.offset=0.6"], "unknown config key 'probes.offset'"),
    (["energy-scaling", "--set", "energy.layers=2"], "energy.layers must be >= 4"),
    (["energy-scaling", "--set", "energy.xrange=2"], "energy.xrange must lie in (0, 1]"),
    (["energy-scaling", "--set", "energy.aspect=0"], "energy.aspect must be positive"),
    (["sweep", "--set", "quadrature=2"], "unknown config key 'quadrature'"),
    (["sweep", "--set", "lateral=foo"], "unknown config key 'lateral'"),
    (["sweep", "--set", "bc.phi=0,0"], "bc.phi and bc.psi are all zero"),
    (["validate-coefficients", "--set", "coeffcheck.samples=0"],
     "unknown config key 'coeffcheck.samples'"),
    (["validate-coefficients", "--set", "coeffcheck.pairs=0"],
     "unknown config key 'coeffcheck.pairs'"),
    (["prop21", "--set", "prop21.zprimes=foo"], "unknown config key 'prop21.zprimes'"),
    (["prop21", "--set", "prop21.zprimes=,"], "unknown config key 'prop21.zprimes'"),
    (["validate-geometry", "--set", "validate.samples=0"],
     "unknown config key 'validate.samples'"),
    (["prop21", "--set", "prop21.zprimes=2"], "unknown config key 'prop21.zprimes'"),
    (["prop21", "--set", "prop21.zprimes=0,0.9"], "unknown config key 'prop21.zprimes'"),
    (["sweep", "--set", "system.lambda1=-5"],
     "system.lambda1 and system.mu1: need mu1 > 0 and lambda1 + mu1 > 0, got (-5.0, 1.0)"),
    (["energy-scaling", "--set", "system.mu1=-1"],
     "system.lambda1 and system.mu1: need mu1 > 0 and lambda1 + mu1 > 0, got (1.0, -1.0)"),
    (["oracle-suite", "--set", "system.kind=identity", "--set", "system.lambda1=-5"],
     "system.lambda1 and system.mu1: need mu1 > 0 and lambda1 + mu1 > 0, got (-5.0, 1.0)"),
    (["oracle-suite", "--set", "epsilon=nan"],
     "bad value for 'epsilon': 'nan' (nan is not a finite number)"),
    (["solve", "--set", "epsilon=inf"],
     "bad value for 'epsilon': 'inf' (inf is not a finite number)"),
    (["sweep", "--set", "sweep.epsilons=nan,0.01,0.001"],
     "bad value for 'sweep.epsilons': 'nan,0.01,0.001' (nan is not a finite number)"),
    (["prop21", "--set", "prop21.zprimes=0,nan"], "unknown config key 'prop21.zprimes'"),
    (["sweep", "--set", "checks.stability_factor=0.5"],
     "bad value for 'checks.stability_factor': '0.5' (must be > 1"),
    (["energy-scaling", "--set", "checks.exponent_band=0"],
     "bad value for 'checks.exponent_band': '0' (must be positive)"),
    (["sweep", "--set", "reliability.threshold=0"],
     "reliability.threshold must be positive, got 0.0"),
    (["validate-coefficients", "--set", "system.kind=identity", "--set", "system.m=-2"],
     "system.m must be >= 1, got -2"),
    (["energy-scaling", "--set", "system.kind=holder_demo", "--set", "system.m=-1"],
     "system.m must be >= 1, got -1"),
    (["validate-coefficients", "--set", "system.kind=identity", "--set", "system.m=0"],
     "system.m must be >= 1, got 0"),
    (["solve", "--set", "mesh.dxmax=1e-9"],
     "mesh.aspect and mesh.dxmax at epsilon = 0.01: grading aspect = 2, dxmax = 1e-09 "
     "needs more than 50000 stations"),
    (["solve", "--set", "mesh.aspect=1e-9"],
     "mesh.aspect and mesh.dxmax at epsilon = 0.01: grading aspect = 1e-09"),
    (["energy-scaling", "--set", "energy.aspect=1e-9"],
     "energy.aspect and mesh.dxmax at epsilon = 0.1: grading aspect = 1e-09"),
    (["oracle-suite", "--set", "epsilon=1e-9"],
     "epsilon = 1e-09 for the affine oracle's flat strip: grading aspect = 2"),
    (["sweep", "--set", "checks.stability_factor=1"],
     "bad value for 'checks.stability_factor': '1' (must be > 1"),
    (["sweep", "--set", "mesh.dxmax=4e-5"],
     "mesh.layers, mesh.aspect and mesh.dxmax at epsilon = 0.1: the refined mesh's 100001 "
     "stations of 12 layers (stations level) need a 436 MiB band and 659 MiB of element "
     "matrices, more than the 1024 MiB budget"),
    (["sweep", "--set", "bc.kind=polynomial", "--set", "bc.phi=1", "--set", "bc.psi="],
     "bc.kind = polynomial needs at least one coefficient in bc.phi and in bc.psi, "
     "got bc.phi = [1.0], bc.psi = []"),
    (["prop21", "--set", "bc.kind=polynomial", "--set", "bc.phi=", "--set", "bc.psi=0.5"],
     "got bc.phi = [], bc.psi = [0.5]"),
    (["prop21", "--set", "bc.kind=polynomial", "--set", "bc.phi=1", "--set", "bc.psi="],
     "got bc.phi = [1.0], bc.psi = []"),
    (["prop21", "--set", f"prop21.pairs={MAX_SAMPLES + 1}"],
     f"bad value for 'prop21.pairs': '{MAX_SAMPLES + 1}' (must be <= {MAX_SAMPLES})"),
    (["validate-coefficients", "--set", f"coeffcheck.pairs={MAX_SAMPLES + 1}"],
     "unknown config key 'coeffcheck.pairs'"),
    (["validate-coefficients", "--set", f"coeffcheck.samples={MAX_SAMPLES // 10 + 1}"],
     "unknown config key 'coeffcheck.samples'"),
    (["validate-geometry", "--set", "dim=3"], "unknown config key 'dim'"),
    (["sweep", "--set", "bc.kind=custom"], "unknown bc kind 'custom'"),
    (["solve", "--set", "system.lambda1=1e308"],
     "system.lambda1 and system.mu1: need |lambda1| and mu1 <= 1e+100, got (1e+308, 1.0)"),
    (["oracle-suite", "--set", "system.kind=identity", "--set", "system.mu1=1e163"],
     "system.lambda1 and system.mu1: need |lambda1| and mu1 <= 1e+100, got (1.0, 1e+163)"),
    (["solve", "--set", "profile.c1=-0.006", "--set", "profile.c2=0.006"],
     "profile.c1 = -0.006 and profile.c2 = 0.006 at epsilon = 0.01: the boundaries cross "
     "inside |x'| <= mesh.xrange = 1 (least gap width -0.002)"),
    (["oracle-suite", "--set", "epsilon=3"],
     "the slab of radius 1.5 at z' = 0 leaves the unit ball |x'| <= 1"),
    (["prop21", "--set", "profile.c1=10", "--set", "profile.c2=-10"],
     "profile.c1 = 10 and profile.c2 = -10 at epsilon = 0.1: the widest slab at z' = 0.2154 "
     "leaves the unit ball |x'| <= 1"),
    (["validate-geometry", "--set", "epsilon=-1"],
     "bad value for 'epsilon': '-1' (must be positive)"),
    (["prop21", "--seed", "-1"], "bad value for 'seed': '-1' (must be >= 0)"),
    (["prop21", "--set", "prop21.pairs=0"], "bad value for 'prop21.pairs': '0' (must be >= 1)"),
    (["sweep", "--set", "profile.c1=-0.006", "--set", "profile.c2=0.006"],
     "at epsilon = 0.001: the boundaries cross inside |x'| <= mesh.xrange = 1"),
    (["energy-scaling", "--set", "profile.c1=-0.006", "--set", "profile.c2=0.006"],
     "at epsilon = 0.001: the boundaries cross inside |x'| <= energy.xrange = 0.75"),
    (["validate-coefficients", "--set", "system.kind=identity", "--set", "system.m=100000000"],
     f"bad value for 'system.m': '100000000' (must be <= {MAX_COMPONENTS})"),
    (["sweep", "--set", "system.kind=holder_demo", "--set", f"system.m={MAX_COMPONENTS + 1}"],
     f"bad value for 'system.m': '{MAX_COMPONENTS + 1}' (must be <= {MAX_COMPONENTS})"),
    (["sweep", "--set", "bc.phi=1e300"],
     "bad value for 'bc.phi': '1e+300' (entries must be <= 1e+100 in magnitude)"),
    (["solve", "--set", "bc.phi=1e160"],
     "bad value for 'bc.phi': '1e+160' (entries must be <= 1e+100 in magnitude)"),
    (["energy-scaling", "--set", "bc.phi=1e300"], "bad value for 'bc.phi': '1e+300'"),
    (["prop21", "--set", "bc.psi=0,-1.5e100"], "bad value for 'bc.psi': '-1.5e+100'"),
    (["oracle-suite", "--set", "bc.kind=polynomial", "--set", "bc.phi=1,0,2e100",
      "--set", "bc.psi=0.5"], "bad value for 'bc.phi': '2e+100'"),
    (["solve", "--set", "mesh.layers=1000000"],
     "mesh.layers, mesh.aspect and mesh.dxmax at epsilon = 0.01: the mesh's 101 stations of "
     "1000000 layers need a"),
    (["energy-scaling", "--set", "energy.layers=1000000"],
     "energy.layers, energy.aspect and mesh.dxmax at epsilon = 0.1: the mesh's"),
])
def test_bad_plan_values_exit_2(tmp_path, capsys, argv, message):
    assert run([*argv, "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_prop21_checks_every_slab_before_sampling(tmp_path, capsys, monkeypatch):
    # the slab at z' = 0 fits; the one at the neck rim, checked next, does not
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled")

    monkeypatch.setattr(auxiliary, "holder_seminorm", no_sampling)
    assert run(["prop21", "--out", str(tmp_path), "--set", "profile.c1=10",
                "--set", "profile.c2=-10"]) == 2
    assert "at epsilon = 0.1: the widest slab at z' = 0.2154" in capsys.readouterr().err


# config text in and out of every key's range
VALUES = st.one_of(
    st.sampled_from(["0", "-1", "1", "3", "4", "0.5", "1e-300", "1e300", "-1e300", "1e400",
                     "nan", "inf", "-inf", "", ",", "foo", "lame", "identity", "holder_demo",
                     "polynomial", "constant_jump", str(MAX_SAMPLES + 1), "9" * 30]),
    st.integers(-10**6, 10**6).map(str),
    st.floats().map(repr),
    st.lists(st.floats(-2.0, 2.0), max_size=6).map(lambda v: ",".join(map(repr, v))),
)


@settings(max_examples=400, deadline=None)
@given(st.dictionaries(st.sampled_from(sorted(SCHEMA)), VALUES, min_size=1, max_size=3))
def test_effective_config_returns_a_valid_plan_or_a_config_error(overrides):
    # parsing converts types and SweepPlan.validate checks ranges: nothing
    # else escapes, and nothing is solved
    try:
        plan = effective_config(None, [f"{k}={v}" for k, v in overrides.items()], None)
    except (ConfigError, PlanError):
        return
    assert isinstance(plan, SweepPlan)
    plan.validate()


# largest case the solve property runs, in graded stations times mesh.layers (about
# the vertex count): a Lame solve of that size takes 0.3 s with its exports, so 50
# cases stay under 15 s.  About 96% of the drawn cases lie below it; the rest are
# not run
SOLVE_CASE_SIZE = 20_000
# largest case the sweep and energy-scaling property runs, in stations graded at
# the smallest of its three gap widths times layers: a Lame sweep of that size,
# its refined levels included, takes about 0.1 s with its exports
PIPELINE_CASE_SIZE = 5_000


def _case_size(epsilon, gamma, layers, aspect, dxmax, xrange) -> int:
    """Stations graded at ``epsilon`` times ``layers``; 0 when grading refuses
    (too many stations: exit 2 before any mesh is built)."""
    try:
        return grade(SweepPlan(gamma=gamma).geometry(epsilon), aspect, dxmax, xrange).size * layers
    except MeshError:
        return 0


@settings(max_examples=50, deadline=None)
@given(epsilon=st.floats(-8, math.log10(0.5)).map(lambda t: 10.0 ** t),
       gamma=st.floats(0, 1, exclude_min=True, exclude_max=True),
       system=st.sampled_from(["lame", "identity", "holder_demo"]),
       bc=st.sampled_from(["constant_jump", "polynomial"]),
       layers=st.integers(4, 12), aspect=st.floats(0.25, 4), dxmax=st.floats(0.02, 0.2),
       xrange=st.floats(0.5, 1))
def test_solve_pipeline_over_the_key_ranges(epsilon, gamma, system, bc, layers, aspect,
                                            dxmax, xrange):
    # a valid exit code and finite artifacts, never a traceback, and a valid mesh
    assume(_case_size(epsilon, gamma, layers, aspect, dxmax, xrange) <= SOLVE_CASE_SIZE)
    keys = {"epsilon": epsilon, "gamma": gamma, "system.kind": system, "bc.kind": bc,
            "mesh.layers": layers, "mesh.aspect": aspect, "mesh.dxmax": dxmax,
            "mesh.xrange": xrange}
    meshes = []

    def solve(plan):
        result = run_solve(plan)
        meshes.append(result[1].mesh)
        return result

    with tempfile.TemporaryDirectory() as out, pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "run_solve", solve)
        sets = [a for k, v in keys.items() for a in ("--set", f"{k}={v}")]
        code = run(["solve", "--out", out, *sets])
        assert code in (0, 1, 2)
        if code != 2:
            assert meshes
            assert _finite(json.loads(Path(out, "solve.json").read_text()))
            head, *rows = Path(out, "solution.txt").read_text().splitlines()
            assert len(rows) == int(head.split()[1])
            assert np.isfinite(np.array([r.split() for r in rows], dtype=float)).all()
    for mesh in meshes:
        mesh.validate()


@settings(max_examples=20, deadline=None)
@given(command=st.sampled_from(["sweep", "energy-scaling"]),
       smallest=st.floats(-5, -2).map(lambda t: 10.0 ** t),
       gamma=st.floats(0, 1, exclude_min=True, exclude_max=True),
       system=st.sampled_from(["lame", "identity", "holder_demo"]),
       bc=st.sampled_from(["constant_jump", "polynomial"]),
       layers=st.integers(4, 16), aspect=st.floats(0.1, 4), dxmax=st.floats(0.01, 0.2),
       xrange=st.floats(0.5, 1))
def test_sweep_and_energy_pipelines_over_the_key_ranges(command, smallest, gamma, system, bc,
                                                        layers, aspect, dxmax, xrange):
    # the solve property for the sweep over the mesh.* keys and energy-scaling
    # over the energy.* keys, at three gap widths: every mesh built, the
    # sweep's refined levels included, is valid
    assume(_case_size(smallest, gamma, layers, aspect, dxmax, xrange) <= PIPELINE_CASE_SIZE)
    family, artifact = ("mesh", "report.json") if command == "sweep" else ("energy",
                                                                           "energy.json")
    keys = {"sweep.epsilons": f"0.1,0.03,{smallest!r}", "gamma": gamma, "system.kind": system,
            "bc.kind": bc, f"{family}.layers": layers, f"{family}.aspect": aspect,
            "mesh.dxmax": dxmax, f"{family}.xrange": xrange}
    meshes = []

    def build(geom, stations, layers):
        meshes.append(generate(geom, stations, layers))
        return meshes[-1]

    with tempfile.TemporaryDirectory() as out, pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "generate", build)
        sets = [a for k, v in keys.items() for a in ("--set", f"{k}={v}")]
        code = run([command, "--out", out, *sets])
        assert code in (0, 1, 2)
        if code != 2:
            assert meshes
            assert _finite(json.loads(Path(out, artifact).read_text()))
    for mesh in meshes:
        mesh.validate()


@pytest.mark.parametrize("c, code, width", [("0.006", 1, "-0.002, not > 0"),
                                             ("0.004", 0, "0.002 > 0")])
def test_validate_geometry_measures_the_least_width(tmp_path, capsys, c, code, width):
    # boundaries -+c|x'|^{3/2} off the 0.01 gap cross at |x'| > 0.885 for c = 0.006
    assert run(["validate-geometry", "--out", str(tmp_path), "--set", f"profile.c1=-{c}",
                "--set", f"profile.c2={c}"]) == code
    assert f"geometry: least gap width {width}" in capsys.readouterr().out
    doc = json.loads((tmp_path / "geometry.json").read_text())
    assert doc["least_width"] == pytest.approx(0.01 - 2 * float(c), rel=1e-12)
    assert "dim" not in doc


# small runs of every command, with the artifact that carries its verdicts
SMALL_RUNS = {
    "validate-geometry": ("geometry.json", []),
    "validate-coefficients": ("coefficients.json", []),
    "solve": ("solve.json", ["--set", "mesh.layers=4", "--set", "mesh.xrange=0.5"]),
    "sweep": ("report.json", SMALL),
    "prop21": ("prop21.json", ["--set", "sweep.epsilons=0.1,0.03,0.01",
                               "--set", "prop21.pairs=300"]),
    "energy-scaling": ("energy.json", ["--set", "energy.layers=8"]),
    "oracle-suite": ("oracle.json", []),
}


def _verdict_lines(stdout):
    """[word, name, reason] of each ``PASS|FAIL|n/a <name>: <reason>`` line."""
    out = []
    for ln in stdout.splitlines():
        word, _, rest = ln.partition(" ")
        if word in ("PASS", "FAIL", "n/a"):
            out.append([word, *rest.split(": ", 1)])
    return out


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_every_command_writes_and_prints_its_verdicts(tmp_path, capsys, command):
    artifact, argv = SMALL_RUNS[command]
    assert run([command, "--out", str(tmp_path), *argv]) == 0
    doc = json.loads((tmp_path / artifact).read_text())
    verdicts = doc["verdicts"]
    assert set(verdicts.values()) <= {"pass", "n/a"}
    assert list(doc)[-2:] == ["checks", "verdicts"] and list(doc["checks"]) == list(verdicts)
    printed = _verdict_lines(capsys.readouterr().out)
    assert [name for _, name, _ in printed] == list(verdicts)
    assert all(word.lower() == verdicts[name] for word, name, _ in printed)
    for old in ("passed", "kappa3_exceeded", "edge_in_band", "outer_in_band",
                "center_bound_satisfied", "center_in_band", "center_slack"):
        assert old not in doc
    for name, check in doc["checks"].items():
        assert set(check) == {"value", "relation", "bound"}, name


# a setting that fails one gate of a small run
FORCED = {
    # the small runs' max/min ratios are about 1.2, far above this factor
    ("sweep", "profile"): ["--set", "checks.stability_factor=1.01"],
    ("prop21", "seminorm_growth"): ["--set", "checks.stability_factor=1.01"],
    ("energy-scaling", "edge_in_band"): ["--set", "checks.exponent_band=1e-6"],
    ("sweep", "reliability"): ["--set", "reliability.threshold=1e-9"],
    ("validate-coefficients", "kappa3"): [],     # claimed kappa3 lowered below
    ("validate-geometry", "geometry"): ["--set", "profile.c1=-0.006", "--set", "profile.c2=0.006"],
}


@pytest.mark.parametrize("command, failing", list(FORCED))
def test_forced_failure_exits_1_and_prints_fail(tmp_path, capsys, monkeypatch, command, failing):
    if failing == "kappa3":
        exact = SweepPlan.coefficients
        monkeypatch.setattr(SweepPlan, "coefficients",
                            lambda plan: dataclasses.replace(exact(plan), kappa3=0.5))
    artifact, argv = SMALL_RUNS[command]
    assert run([command, "--out", str(tmp_path), *argv, *FORCED[command, failing]]) == 1
    lines = {name: (word, reason) for word, name, reason in
             _verdict_lines(capsys.readouterr().out)}
    doc = json.loads((tmp_path / artifact).read_text())
    assert doc["verdicts"][failing] == "fail"
    word, reason = lines[failing]
    check = doc["checks"][failing]
    assert word == "FAIL"
    # the line carries the measured value and the bound it missed
    bound = check["bound"] if isinstance(check["bound"], list) else [check["bound"]]
    for number in [check["value"], *bound]:
        assert f"{number:.4g}" in reason, (reason, number)


def test_reliability_fails_on_the_layers_level_alone(tmp_path, capsys, monkeypatch):
    # every stations drift passes; the largest epsilon's layers level does not
    import thingap.verify as verify
    exact = verify._refined_neck

    def layers_unreliable(fine, cs, data, M):
        M_fine, change = exact(fine, cs, data, M)
        return M_fine, (0.5 if fine.layers == 16 else change)     # SMALL's 8 layers, doubled

    monkeypatch.setattr(verify, "_refined_neck", layers_unreliable)
    assert run(["sweep", "--out", str(tmp_path), *SMALL]) == 1
    assert ["FAIL", "reliability", "worst refinement drift 0.5, not < 0.1"] in \
        _verdict_lines(capsys.readouterr().out)
    doc = json.loads((tmp_path / "report.json").read_text())
    assert all(r["reliability_change"] < 0.1 for r in doc["per_epsilon"])
    assert doc["checks"]["reliability"]["value"] == 0.5
    assert doc["verdicts"]["reliability"] == "fail"


def test_not_applicable_verdict_does_not_fail(tmp_path, capsys):
    # data without a jump at x' = 0: the centerline lower bound does not apply
    code = run(["sweep", "--out", str(tmp_path), *SMALL, "--set", "bc.kind=polynomial",
                "--set", "bc.phi=0,0,1", "--set", "bc.psi=0",
                "--set", "reliability.threshold=10"])
    assert code == 0
    assert ["n/a", "lower_bound", "max/min not measured, bound < 3"] in \
        _verdict_lines(capsys.readouterr().out)
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["verdicts"]["lower_bound"] == "n/a"
    assert doc["checks"]["lower_bound"] == {"relation": "<", "bound": 3.0}



def test_sweep_on_equal_data_is_not_applicable_and_exits_0(tmp_path, capsys):
    # bc.phi = bc.psi: the solution is constant, so the envelope spreads and the
    # refinement drifts are ratios of roundoff, and no check applies
    code = run(["sweep", "--out", str(tmp_path), "--set", "bc.phi=1,1", "--set", "bc.psi=1,1"])
    assert code == 0
    assert [line[:2] for line in _verdict_lines(capsys.readouterr().out)] == [
        ["n/a", "profile"], ["n/a", "lower_bound"], ["n/a", "reliability"]]
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["fit"]["degenerate"]
    assert set(doc["verdicts"].values()) == {"n/a"}
