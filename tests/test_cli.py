import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from thingap.cli import (COMMANDS, ConfigError, SCHEMA, dumps, effective_config, emit_tables,
                         export_solution_text, fmt_float, parse_config_text,
                         plan_from_config, run)


SMALL = ["--set", "sweep.epsilons=0.1,0.03,0.01", "--set", "mesh.layers=8",
         "--set", "mesh.xrange=0.75", "--set", "probes.centerline=9",
         "--set", "probes.profile=17"]


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
    cfg = effective_config(None, [], None)
    assert set(cfg) == set(SCHEMA)
    plan = plan_from_config(cfg)
    assert plan.epsilons == (1e-1, 3e-2, 1e-2, 3e-3, 1e-3)


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
    assert sweep[0] == "epsilon,M_center,C_upper,C_lower,energy_E0,flags"
    assert len(sweep) == 1 + 3
    prof = (out / "profile_0.1.csv").read_text().strip().split("\n")
    assert prof[0] == "x,grad_norm"
    assert len(prof) == 1 + 17


def test_sweep_csv_roundtrips_report_values(tmp_path):
    import json
    out = tmp_path / "o"
    assert run(["sweep", "--out", str(out), *SMALL]) == 0
    doc = json.loads((out / "report.json").read_text())
    rows = (out / "sweep.csv").read_text().strip().split("\n")[1:]
    for row, rec in zip(rows, doc["per_epsilon"]):
        eps, m, cu, cl, e0, _flags = row.split(",")
        assert float(eps) == rec["epsilon"]
        assert float(m) == rec["M_center"]
        assert float(cu) == rec["C_upper"]
        assert float(cl) == rec["C_lower"]
        assert float(e0) == rec["energy_E0"]


def test_emit_tables_empty_report(tmp_path):
    class Empty:
        records = []
    written = emit_tables(Empty(), tmp_path)
    assert "sweep.csv" in written
    assert (tmp_path / "sweep.csv").read_text().strip() == \
        "epsilon,M_center,C_upper,C_lower,energy_E0,flags"


def test_config_roundtrip_reproduces_report(tmp_path):
    out1 = tmp_path / "a"
    assert run(["sweep", "--out", str(out1), *SMALL, "--seed", "5"]) == 0
    cfg = effective_config(None, [s for s in SMALL if "=" in s], 5)
    lines = []
    for key, value in cfg.items():
        if isinstance(value, tuple):
            value = ",".join(fmt_float(v) for v in value)
        lines.append(f"{key} = {value}")
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
    assert run(["validate-coefficients", "--out", str(tmp_path / "c"),
                "--set", "coeffcheck.samples=2000",
                "--set", "coeffcheck.pairs=2000"]) == 0


def test_threads_bound_blas_pools_during_a_command(tmp_path, monkeypatch):
    import thingap.cli as cli
    from thingap import _blas

    pools = _blas.pools()
    if not pools:
        pytest.skip("no OpenBLAS loaded")
    before = [get() for _, get in pools]
    seen = []

    def record(cfg, outdir, threads):
        seen.append([get() for _, get in pools])
        return "geometry.json", {}, {}

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


def test_readme_key_list_matches_schema():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("Keys:\n\n```\n", 1)[1].split("```", 1)[0]
    listed = []
    for line in block.splitlines():
        if line and not line[0].isspace():
            listed += [k.strip() for k in re.split(r"\s{2,}", line)[0].split(",")]
    assert len(listed) == len(set(listed))
    assert set(listed) == set(SCHEMA)


def test_traced_commands_keep_benchmark_hooks(tmp_path):
    # the benchmark wraps these names from outside src/; a rename breaks it
    root = Path(__file__).resolve().parents[1]
    script = f"""
import json, sys
sys.path.insert(0, {str(root / 'perfbench')!r})
import thingap.cli
import spans
rec = spans.install_tracing()
codes = [thingap.cli.run(["sweep", "--out", {str(tmp_path / 'sweep')!r}, *{SMALL!r}]),
         thingap.cli.run(["oracle-suite", "--out", {str(tmp_path / 'oracle')!r}])]
calls = {{}}
for s in rec.spans:
    calls[s[0]] = calls.get(s[0], 0) + 1
errors = [s[0] for s in rec.spans if (s[4] or {{}}).get("error")]
print(json.dumps({{"codes": codes, "errors": errors, "calls": calls}}))
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    assert got["codes"] == [0, 0]
    assert got["errors"] == []
    assert got["calls"].get("mesh.locate", 0) > 0
    assert got["calls"].get("coefficients.eval_A_many", 0) > 0


@pytest.mark.parametrize("argv, message", [
    (["prop21", "--set", "prop21.s_fractions=0,0.5,1"], "prop21.s_fractions"),
    (["sweep", "--set", "bc.phi=1,0,5"], "beyond the system's 2 components"),
    (["sweep", "--set", "profile.c2=2"], "boundaries cross"),
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
    (["sweep", "--set", "probes.profile=0"], "probes.profile must be >= 1"),
    (["sweep", "--set", "probes.centerline=0"], "probes.centerline and"),
    (["sweep", "--set", "probes.offset=0.6"], "probes.offset must lie in [0, 0.5)"),
    (["energy-scaling", "--set", "energy.layers=2"], "energy.layers must be >= 4"),
    (["energy-scaling", "--set", "energy.xrange=2"], "energy.xrange must lie in (0, 1]"),
    (["energy-scaling", "--set", "energy.aspect=0"], "energy.aspect must be positive"),
    (["sweep", "--set", "quadrature=2"], "unknown config key 'quadrature'"),
    (["sweep", "--set", "lateral=foo"], "unknown config key 'lateral'"),
    (["sweep", "--set", "bc.phi=0,0"], "bc.phi and bc.psi are all zero"),
    (["validate-coefficients", "--set", "coeffcheck.samples=0"],
     "'coeffcheck.samples': '0' (must be >= 1)"),
    (["validate-coefficients", "--set", "coeffcheck.pairs=0"],
     "'coeffcheck.pairs': '0' (must be >= 1)"),
    (["prop21", "--set", "prop21.zprimes=foo"], "token 'foo' is neither a number nor 'neck'"),
    (["prop21", "--set", "prop21.zprimes=,"], "needs at least one z'"),
    (["validate-geometry", "--set", "validate.samples=0"],
     "'validate.samples': '0' (must be >= 1)"),
    (["prop21", "--set", "prop21.zprimes=2"],
     "prop21.zprimes value 2 at epsilon=0.1: z'=2 or its widest slab leaves the unit ball"),
    (["prop21", "--set", "prop21.zprimes=0,0.9"],
     "prop21.zprimes value 0.9 at epsilon=0.1: z'=0.9 or its widest slab leaves"),
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
    (["prop21", "--set", "prop21.zprimes=0,nan"],
     "bad value for 'prop21.zprimes': '0,nan' (nan is not a finite number)"),
])
def test_bad_plan_values_exit_2(tmp_path, capsys, argv, message):
    assert run([*argv, "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_validate_geometry_honours_dim_for_flat_profiles(tmp_path, monkeypatch):
    from thingap.geometry import GapGeometry
    dims = []
    original = GapGeometry.validate

    def spy(self, *args, **kwargs):
        dims.append(self.dim)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(GapGeometry, "validate", spy)
    for kind in ("flat", "power"):
        assert run(["validate-geometry", "--out", str(tmp_path), "--set",
                    f"profile.kind={kind}", "--set", "dim=3"]) == 0
    assert dims == [3, 3]


# small runs of every command, with the artifact that carries its verdicts
SMALL_RUNS = {
    "validate-geometry": ("geometry.json", ["--set", "validate.samples=200"]),
    "validate-coefficients": ("coefficients.json", ["--set", "coeffcheck.samples=500",
                                                    "--set", "coeffcheck.pairs=500"]),
    "solve": ("solve.json", ["--set", "mesh.layers=4", "--set", "mesh.xrange=0.5"]),
    "sweep": ("report.json", SMALL),
    "prop21": ("prop21.json", ["--set", "sweep.epsilons=0.1,0.03,0.01",
                               "--set", "prop21.pairs=300"]),
    "energy-scaling": ("energy.json", ["--set", "energy.layers=8"]),
    "oracle-suite": ("oracle.json", []),
}


def _verdict_lines(stdout):
    return [ln.split(" ", 1) for ln in stdout.splitlines()
            if ln.split(" ", 1)[0] in ("PASS", "FAIL", "n/a")]


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_every_command_writes_and_prints_its_verdicts(tmp_path, capsys, command):
    artifact, argv = SMALL_RUNS[command]
    assert run([command, "--out", str(tmp_path), *argv]) == 0
    doc = json.loads((tmp_path / artifact).read_text())
    verdicts = doc["verdicts"]
    assert set(verdicts.values()) <= {"pass", "n/a"}
    printed = _verdict_lines(capsys.readouterr().out)
    assert [name for _, name in printed] == list(verdicts)
    assert all(word.lower() == verdicts[name] for word, name in printed)
    for old in ("passed", "kappa3_exceeded", "edge_in_band", "outer_in_band",
                "center_bound_satisfied"):
        assert old not in doc
    assert not any(k.endswith("_passed") for k in doc.get("checks", {}))


@pytest.mark.parametrize("command, failing", [
    ("sweep", "profile"),
    ("prop21", "seminorm_growth"),
])
def test_forced_failure_exits_1_and_prints_fail(tmp_path, capsys, command, failing):
    artifact, argv = SMALL_RUNS[command]
    assert run([command, "--out", str(tmp_path), *argv,
                "--set", "checks.stability_factor=1.0"]) == 1
    assert ["FAIL", failing] in _verdict_lines(capsys.readouterr().out)
    assert json.loads((tmp_path / artifact).read_text())["verdicts"][failing] == "fail"


def test_not_applicable_verdict_does_not_fail(tmp_path, capsys):
    # data without a jump at x' = 0: the centerline lower bound does not apply
    code = run(["sweep", "--out", str(tmp_path), *SMALL, "--set", "bc.kind=polynomial",
                "--set", "bc.phi=0,0,1", "--set", "bc.psi=0",
                "--set", "reliability.threshold=10"])
    assert code == 0
    assert ["n/a", "lower_bound"] in _verdict_lines(capsys.readouterr().out)
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["verdicts"]["lower_bound"] == "n/a"
    assert doc["checks"]["lower_bound_applicable"] is False

