"""Command-line entry point: configuration, orchestration, artifact output.

Configs are flat ``key = value`` text with dotted keys (see ``SCHEMA``);
every run writes machine-readable JSON and CSV artifacts with floats
serialized at 17 significant digits, so identical config and seed produce
byte-identical reports.  Exit codes: 0 all checks passed, 1 a check failed,
2 configuration error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__, _blas
from .auxiliary import AuxiliaryField, ConfigurationError, check_seminorm_growth, \
    holder_seminorm
from .coefficients import (EllipticityError, check_ellipticity, check_holder,
                           identity_coefficients)
from .geometry import GeometryError, LocalRegion
from .mesh import generate
from .oracle import AffineCase, brute_force_seminorm, finite_difference_reference
from .solver import assemble, dirichlet_values, gradient_at, grid_distance, solve_dirichlet
from .verify import (PlanError, SweepPlan, check_energy_scaling, check_lower_bound,
                     max_over_min, probe_points, run_sweep)


class ConfigError(ValueError):
    """Bad key, bad value, or missing config file."""


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def _finite(text: str) -> float:
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(f"{x} is not a finite number")
    return x


def _floats(text: str):
    return tuple(_finite(t) for t in str(text).split(",") if t.strip() != "")


def _count(text: str) -> int:
    n = int(text)
    if n < 1:
        raise ValueError("must be >= 1")
    return n


def _zprimes(text: str) -> str:
    tokens = [t.strip() for t in text.split(",") if t.strip()]
    if not tokens:
        raise ValueError("needs at least one z'")
    for tok in tokens:
        if tok != "neck":
            try:
                float(tok)
            except ValueError:
                raise ValueError(f"token {tok!r} is neither a number nor 'neck'") from None
            _finite(tok)
    return text


# SweepPlan fields whose key is not the field name with its first "_" -> "."
_PLAN_KEYS = {"epsilons": "sweep.epsilons", "probe_offset": "probes.offset",
              "lambda1": "system.lambda1", "mu1": "system.mu1", "m": "system.m"}
_PARSERS = {tuple: _floats, int: int, float: _finite, str: str}


def _plan_key(name: str) -> str:
    return _PLAN_KEYS.get(name, name.replace("_", ".", 1))


SCHEMA = {
    # key: (parser, default); a plan key's parser follows its field's default
    **{_plan_key(f.name): (_PARSERS[type(f.default)], f.default) for f in fields(SweepPlan)},
    # keys of single-run and check commands, not part of a sweep plan
    "epsilon": (_finite, 1e-2),
    "dim": (int, 2),
    "prop21.s_fractions": (_floats, (0.25, 0.5, 1.0)),
    "prop21.pairs": (_count, 2000),
    "prop21.zprimes": (_zprimes, "0,neck,0.25"),
    "coeffcheck.samples": (_count, 10_000),
    "coeffcheck.pairs": (_count, 10_000),
    "checks.stability_factor": (_finite, 3.0),
    "checks.exponent_band": (_finite, 0.2),
    "validate.samples": (_count, 1000),
}


def parse_config_text(text: str) -> dict:
    """Flat dotted-key config; '#' starts a comment; unknown keys are errors."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
        out[key] = value
    return out


def effective_config(path: str | None, overrides: list[str], seed: int | None) -> dict:
    """Defaults, then the config file, then --set overrides, then --seed."""
    raw = {}
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file not found: {path}")
        raw.update(parse_config_text(p.read_text()))
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, value = (part.strip() for part in item.split("=", 1))
        if key not in SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
        raw[key] = value
    cfg = {}
    for key, (parser, default) in SCHEMA.items():
        if key in raw:
            try:
                cfg[key] = parser(raw[key])
            except ConfigError:
                raise
            except Exception as exc:
                raise ConfigError(f"bad value for {key!r}: {raw[key]!r} ({exc})")
        else:
            cfg[key] = default
    if seed is not None:
        cfg["seed"] = int(seed)
    return cfg


def plan_from_config(cfg: dict) -> SweepPlan:
    plan = SweepPlan(**{f.name: cfg[_plan_key(f.name)] for f in fields(SweepPlan)})
    plan.validate()
    return plan


# ---------------------------------------------------------------------------
# deterministic serialization (17 significant digits)
# ---------------------------------------------------------------------------

def fmt_float(x: float) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    xf = float(x)
    if not np.isfinite(xf):
        return "null"
    return format(xf, ".17g")


def dumps(obj, indent: int = 0) -> str:
    """Minimal JSON writer with fixed float formatting and insertion order."""
    pad = "  " * indent
    pin = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return fmt_float(obj)
    if isinstance(obj, str):
        escaped = obj.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        return f'"{escaped}"'
    if isinstance(obj, (list, tuple, np.ndarray)):
        items = [dumps(v, indent + 1) for v in obj]
        if not items:
            return "[]"
        return "[\n" + ",\n".join(pin + s for s in items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        items = [f'{pin}"{k}": {dumps(v, indent + 1)}' for k, v in obj.items()]
        if not items:
            return "{}"
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def write_json(path: Path, obj) -> None:
    path.write_text(dumps(obj) + "\n")


def _csv_row(values) -> str:
    parts = []
    for v in values:
        if isinstance(v, str):
            parts.append(v)
        elif isinstance(v, (int, np.integer)) and not isinstance(v, bool):
            parts.append(str(int(v)))
        else:
            parts.append(fmt_float(v))
    return ",".join(parts)


def _write_csv(path: Path, header: str, rows) -> None:
    path.write_text("\n".join([header] + [_csv_row(r) for r in rows]) + "\n")


# ---------------------------------------------------------------------------
# artifact emission
# ---------------------------------------------------------------------------

def emit_tables(report, outdir: Path) -> list[str]:
    """sweep.csv, per-epsilon profile CSVs, and the log-log rate table."""
    recs = report.records
    _write_csv(outdir / "sweep.csv", "epsilon,M_center,C_upper,C_lower,energy_E0,flags",
               [[r.epsilon, r.M_center, r.C_upper,
                 r.C_lower if r.C_lower is not None else float("nan"), r.energy_E0,
                 ";".join(r.flags)] for r in recs])
    _write_csv(outdir / "rate_center.csv", "epsilon,M_center",
               [[r.epsilon, r.M_center] for r in recs])
    written = ["sweep.csv", "rate_center.csv"]
    for r in recs:
        written.append(f"profile_{r.epsilon:.6g}.csv")
        _write_csv(outdir / written[-1], "x,grad_norm", zip(r.profile_xp, r.profile_grad))
    return written


def export_solution_text(sol) -> str:
    """Header ``vertices N m M`` then one line of m values per vertex."""
    n, m = sol.values.shape
    lines = [f"vertices {n} m {m}"]
    for row in sol.values:
        lines.append(" ".join(fmt_float(v) for v in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands: each returns (artifact name, JSON document, ordered verdicts)
# ---------------------------------------------------------------------------

def _cmd_validate_geometry(cfg, outdir: Path, threads: int):
    geom = plan_from_config(cfg).geometry(cfg["epsilon"], dim=cfg["dim"])
    doc = {"epsilon": cfg["epsilon"], "gamma": cfg["gamma"], "dim": cfg["dim"],
           "kappa0": geom.kappa0, "kappa1": geom.kappa1, "kappa2": geom.kappa2}
    try:
        geom.validate(samples=cfg["validate.samples"], seed=cfg["seed"])
        ok = True
    except GeometryError as exc:
        ok = False
        doc["error"] = str(exc)
    return "geometry.json", doc, {"geometry": ok}


def _cmd_validate_coefficients(cfg, outdir: Path, threads: int):
    plan = plan_from_config(cfg)
    cs = plan.coefficients()
    geom = plan.geometry(cfg["epsilon"])
    region = LocalRegion(np.zeros(geom.dim), 1.0, geom)
    pts = region.sample_points(max(64, int(np.sqrt(cfg["coeffcheck.samples"]))),
                               cfg["seed"], tag=0)
    doc = {"system": cs.name, "claimed_lambda": cs.lam, "claimed_kappa3": cs.kappa3}
    try:
        meas = check_ellipticity(cs, samples=cfg["coeffcheck.samples"], points=pts,
                                 seed=cfg["seed"])
        doc["measured_lambda"] = meas.value
        doc["near_ties"] = meas.near_ties
        elliptic = True
    except EllipticityError as exc:
        elliptic = False
        doc["error"] = str(exc)
    k3 = check_holder(cs, pair_samples=cfg["coeffcheck.pairs"], points=pts,
                      seed=cfg["seed"])
    doc["measured_kappa3"] = k3
    return "coefficients.json", doc, {"ellipticity": elliptic, "kappa3": not k3 > cs.kappa3}


def _cmd_solve(cfg, outdir: Path, threads: int):
    plan = plan_from_config(cfg)
    eps = cfg["epsilon"]
    geom, data, system = plan.problem(eps)
    mesh = system.mesh
    sol = solve_dirichlet(system, dirichlet_values(mesh, data))
    (outdir / "mesh.txt").write_text(mesh.export_text())
    (outdir / "solution.txt").write_text(export_solution_text(sol))
    xn, xp, mid = probe_points(plan, geom)
    pts = [(0.0, t) for t in xn] + list(zip(xp, mid))
    _write_csv(outdir / "gradients.csv", "x,y,comp,dudx,dudy",
               [[x, y, comp, g[comp, 0], g[comp, 1]]
                for (x, y), g in zip(pts, gradient_at(sol, np.array(pts)))
                for comp in range(g.shape[0])])
    grad0 = float(np.sqrt(np.sum(gradient_at(sol, (0.0, 0.0))**2)))
    print(f"solved epsilon={eps:g}: {mesh.num_vertices} vertices, "
          f"|grad u(0,0)| = {grad0:.6g}")
    doc = {"epsilon": eps, "vertices": mesh.num_vertices,
           "triangles": mesh.num_triangles, "grad_norm_origin": grad0}
    return "solve.json", doc, {}


def _cmd_sweep(cfg, outdir: Path, threads: int):
    plan = plan_from_config(cfg)
    report = run_sweep(plan, threads=threads)
    doc = report.to_dict()
    profile = [r.C_profile for r in report.records]
    profile_stability = max_over_min(profile)
    lb = check_lower_bound(report, cfg["checks.stability_factor"])
    doc["checks"] = {
        "profile_constants": profile,
        "profile_stability": profile_stability,
        "lower_bound_applicable": lb.applicable,
        "lower_bound_constants": lb.constants,
        "lower_bound_stability": lb.sweep_max_over_min,
    }
    emit_tables(report, outdir)
    print(f"fitted rho = {report.rho:.6g} +/- {report.rho_halfwidth:.3g}"
          + (" (degenerate data)" if report.degenerate else ""))
    stable = profile_stability < cfg["checks.stability_factor"]
    return "report.json", doc, {"profile": stable, "lower_bound": lb.passed,
                                "reliability": all(r.reliable for r in report.records)}


def _resolve_prop21_zprimes(tokens: str, geom, widest: float) -> list[float]:
    """The z' of ``prop21.zprimes`` at ``geom``'s epsilon, 'neck' resolved.

    Each z' and its widest slab, of radius ``widest * gap_width(z')``, must
    lie in the unit ball where the profiles are defined.
    """
    eps = geom.epsilon
    out = []
    for tok in tokens.split(","):
        tok = tok.strip()
        if not tok:
            continue
        zp = eps ** (1.0 / (1.0 + geom.gamma)) if tok == "neck" else float(tok)
        if abs(zp) > 1.0 or abs(zp) + widest * float(geom.gap_width(np.array([zp]))) > 1.0:
            raise ConfigError(f"prop21.zprimes value {tok} at epsilon={eps:g}: z'={zp:g} "
                              f"or its widest slab leaves the unit ball |x'| <= 1")
        out.append(zp)
    return out


def _cmd_prop21(cfg, outdir: Path, threads: int):
    plan = plan_from_config(cfg)
    fractions = cfg["prop21.s_fractions"]
    if not fractions or not all(0.0 < f <= 1.0 for f in fractions):
        raise ConfigError(f"prop21.s_fractions must be a nonempty list of slab radius "
                          f"fractions in (0, 1], got {list(fractions)}")
    pairs = cfg["prop21.pairs"]
    geoms = [plan.geometry(eps) for eps in plan.epsilons]
    zprimes = [_resolve_prop21_zprimes(cfg["prop21.zprimes"], geom, max(fractions))
               for geom in geoms]
    rows = []
    per_eps_max = []
    for eps, geom, zps in zip(plan.epsilons, geoms, zprimes):
        data = plan.boundary_data(geom)
        fld = AuxiliaryField(geom, data, 0)
        worst = 0.0
        for zp in zps:
            mid = float(geom.midline(np.array([zp])))
            rep = check_seminorm_growth(fld, np.array([zp, mid]), fractions,
                                        pairs=pairs, seed=plan.seed)
            for row in rep.rows:
                rows.append({"epsilon": eps, "zprime": zp, "s": row.s,
                             "lhs": row.lhs, "rhs": row.rhs, "ratio": row.ratio,
                             "hypothesis_ok": row.hypothesis_ok})
            if np.isfinite(rep.fitted_constant):
                worst = max(worst, rep.fitted_constant)
        per_eps_max.append(worst)
    stability = max_over_min(per_eps_max)
    ok = all(np.isfinite(per_eps_max)) and stability < cfg["checks.stability_factor"]
    doc = {"rows": rows, "per_epsilon_max_constant": per_eps_max, "stability": stability}
    print(f"seminorm-growth constants: max/min = {stability:.4g}")
    return "prop21.json", doc, {"seminorm_growth": ok}


def _cmd_energy_scaling(cfg, outdir: Path, threads: int):
    plan = plan_from_config(cfg)
    res = check_energy_scaling(plan)
    band = cfg["checks.exponent_band"]
    doc = res.to_dict()
    for name, table in (("energy_inner_center.csv", res.center_table),
                        ("energy_inner_edge.csv", res.edge_table),
                        ("energy_outer.csv", res.outer_table)):
        _write_csv(outdir / name, "scale,energy", table)
    if res.degenerate:
        doc["note"] = "degenerate data: remainder vanishes, fits skipped"
        return "energy.json", doc, {"edge_in_band": None, "outer_in_band": None,
                                    "center_bound": None}
    lo_in = res.expected_inner - band
    # the z' = 0 law of the acceptance suite, without its refined-mesh fit
    slack = res.center_slack(band, cfg["checks.stability_factor"])
    doc["center_in_band"] = slack["passed"]
    doc["center_slack"] = slack
    print(f"inner(center z'=0) exponent = {res.center_exponent:.4f}, "
          f"inner(regime edge) = {res.edge_exponent:.4f} "
          f"(expected {res.expected_inner:.4f}), "
          f"outer = {res.outer_exponent:.4f} (expected {res.expected_outer:.4f})")
    return "energy.json", doc, {
        "edge_in_band": lo_in <= res.edge_exponent <= res.expected_inner + band,
        "outer_in_band": (res.expected_outer - band <= res.outer_exponent
                          <= res.expected_outer + band),
        # the slab at z' = 0 decays at least as fast as the bound allows
        "center_bound": res.center_exponent >= lo_in}


def _fd_vs_fem(cs, geom, data, eps: float, m: int) -> float:
    """Interior sup distance between the grid twin and the element solution."""

    def bdata(X):
        X = np.atleast_2d(X)
        u = (X[:, 1] + eps / 2) / eps
        out = np.zeros((X.shape[0], m))
        out[:, 0] = (1.0 + X[:, 0] ** 2) * u
        return out

    grid = finite_difference_reference(cs, 0.5, eps, nx=160, ny=64, boundary=bdata)
    mesh = generate(geom, layers=16, aspect=2.0, dxmax=0.0125, xrange=0.5)
    sol = solve_dirichlet(assemble(mesh, cs), dirichlet_values(mesh, data))
    return grid_distance(sol, grid)


def _cmd_oracle_suite(cfg, outdir: Path, threads: int):
    from .auxiliary import BoundaryData, field_gradients
    from .coefficients import lame_as_general

    plan = plan_from_config(cfg)
    cs_lame = lame_as_general(plan.lame(), 2)     # whatever system.kind says
    eps = cfg["epsilon"]
    case = AffineCase(eps)
    mesh = generate(case.geometry(), layers=8, aspect=2.0, dxmax=0.05, xrange=1.0)
    sol = solve_dirichlet(assemble(mesh, identity_coefficients()),
                          dirichlet_values(mesh, case.data()))
    err = float(np.max(np.abs(sol.values - case.solution(mesh.vertices))))

    # cross-method checks run on a thicker rectangle where the solution is
    # genuinely two-dimensional
    eps_fd = 0.1
    geom_fd = AffineCase(eps_fd).geometry()
    data_scalar = BoundaryData.polynomial([[1.0, 0.0, 1.0]], [[0.0]], geom_fd)
    worst = _fd_vs_fem(identity_coefficients(), geom_fd, data_scalar, eps_fd, m=1)
    data_lame = BoundaryData.polynomial([[1.0, 0.0, 1.0], [0.0]], [[0.0], [0.0]], geom_fd)
    worst_l = _fd_vs_fem(cs_lame, geom_fd, data_lame, eps_fd, m=2)

    gap = plan.geometry(eps)
    fld = AuxiliaryField(gap, plan.boundary_data(gap), 0)
    w0 = float(gap.gap_width(np.zeros(1)))
    region = LocalRegion(np.array([0.0, float(gap.midline(np.zeros(1)))]), 0.5 * w0, gap)

    def f(X):
        return field_gradients(fld, X).reshape(X.shape[0], -1)

    dense = brute_force_seminorm(f, region, cfg["gamma"], grid=60)
    sampled = holder_seminorm(f, region, cfg["gamma"], pairs=4000, seed=cfg["seed"])
    doc = {"affine_nodal_error": err, "fd_vs_fem_scalar": worst, "fd_vs_fem_lame": worst_l,
           "seminorm_dense": dense, "seminorm_sampled": sampled}
    print(f"oracle suite: affine={err:.2e}, fd-vs-fem scalar={worst:.2e} "
          f"lame={worst_l:.2e}, seminorm ratio="
          f"{sampled / dense if dense > 0 else float('nan'):.3f}")
    return "oracle.json", doc, {"affine_exact": err <= 1e-10,
                                "fd_vs_fem_scalar": worst <= 0.01,
                                "fd_vs_fem_lame": worst_l <= 0.01,
                                "seminorm_sampling": sampled >= 0.8 * dense}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

COMMANDS = {
    "validate-geometry": _cmd_validate_geometry,
    "validate-coefficients": _cmd_validate_coefficients,
    "solve": _cmd_solve,
    "sweep": _cmd_sweep,
    "prop21": _cmd_prop21,
    "energy-scaling": _cmd_energy_scaling,
    "oracle-suite": _cmd_oracle_suite,
}

_VERDICT_WORDS = {True: "pass", False: "fail", None: "n/a"}


def _conclude(outdir: Path, artifact: str, doc: dict, verdicts: dict) -> int:
    """Write ``doc`` with its verdicts block, print one line per verdict.

    A verdict is True (pass), False (fail) or None (not applicable); the
    exit code is 1 when any verdict fails, else 0.
    """
    words = {name: _VERDICT_WORDS[v] for name, v in verdicts.items()}
    doc["verdicts"] = words
    write_json(outdir / artifact, doc)
    for name, word in words.items():
        print(f"{word if word == 'n/a' else word.upper()} {name}")
    return 1 if "fail" in words.values() else 0


def run(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="thingap",
        description="Verification experiments for gradient blow-up in narrow gaps.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", default=None, help="flat key=value config file")
    parser.add_argument("--out", default="thingap_out",
                        help="output directory (THINGAP_OUT overrides)")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="override a config key (repeatable)")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--version", action="version", version=__version__)
    args = parser.parse_args(argv)

    try:
        cfg = effective_config(args.config, args.overrides, args.seed)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    outdir = Path(os.environ.get("THINGAP_OUT") or args.out)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"cannot create output directory: {exc}", file=sys.stderr)
        return 2

    threads = max(1, args.threads)
    try:
        with _blas.one_thread():        # --threads sizes the sweep pool only
            result = COMMANDS[args.command](cfg, outdir, threads)
    except (ConfigError, PlanError, ConfigurationError, GeometryError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    return _conclude(outdir, *result)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
