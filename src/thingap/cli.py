"""Command-line entry point: parses configs, writes artifacts, prints verdicts.

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
from .auxiliary import ConfigurationError
from .geometry import GeometryError
from .verify import (PlanError, SweepPlan, check_block, check_coefficients, check_energy_scaling,
                     check_geometry, check_oracles, check_prop21, config_key, run_solve,
                     run_sweep)


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


_PARSERS = {tuple: _floats, int: int, float: _finite, str: str}

# one key per SweepPlan field, named by verify.config_key; parsing converts the
# type and rejects non-finite numbers, SweepPlan.validate checks every range
SCHEMA = {config_key(f.name): f for f in fields(SweepPlan)}


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


def effective_config(path: str | None, overrides: list[str], seed: int | None) -> SweepPlan:
    """The validated plan of the defaults, then the config file, then --set
    overrides, then --seed."""
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
    values = {}
    for key, value in raw.items():
        field = SCHEMA[key]
        try:
            values[field.name] = _PARSERS[type(field.default)](value)
        except Exception as exc:
            raise ConfigError(f"bad value for {key!r}: {value!r} ({exc})")
    if seed is not None:
        values["seed"] = int(seed)
    return SweepPlan(**values)


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

def emit_tables(report: dict, outdir: Path) -> list[str]:
    """sweep.csv, per-epsilon profile CSVs, and the log-log rate table, from the
    ``per_epsilon`` records of ``report.json``."""
    recs = report["per_epsilon"]
    _write_csv(outdir / "sweep.csv", "epsilon,M_center,C_upper,C_lower,flags",
               [[r["epsilon"], r["M_center"], r["C_upper"],
                 r["C_lower"] if r["C_lower"] is not None else float("nan"),
                 ";".join(r["flags"])] for r in recs])
    _write_csv(outdir / "rate_center.csv", "epsilon,M_center",
               [[r["epsilon"], r["M_center"]] for r in recs])
    written = ["sweep.csv", "rate_center.csv"]
    for r in recs:
        written.append(f"profile_{r['epsilon']:.6g}.csv")
        _write_csv(outdir / written[-1], "x,grad_norm", r["profile"])
    return written


def export_solution_text(sol) -> str:
    """Header ``vertices N m M`` then one line of m values per vertex, each
    as :func:`fmt_float` writes it."""
    n, m = sol.values.shape
    if np.isfinite(sol.values).all():   # one % call per block of 4096 lines
        line = " ".join(["%.17g"] * m) + "\n"
        body = "".join((line * len(block)) % tuple(block.ravel().tolist())
                       for block in (sol.values[a:a + 4096] for a in range(0, n, 4096)))
    else:   # null for the non-finite values
        body = "".join(" ".join(fmt_float(v) for v in row) + "\n" for row in sol.values)
    return f"vertices {n} m {m}\n" + body


# ---------------------------------------------------------------------------
# subcommands: each returns (artifact name, JSON document, list of Check); the
# measurements are called by their module-global names, which the benchmark's
# tracing replaces
# ---------------------------------------------------------------------------

def _cmd_validate_geometry(plan, outdir: Path, threads: int):
    return ("geometry.json", *check_geometry(plan))


def _cmd_validate_coefficients(plan, outdir: Path, threads: int):
    return ("coefficients.json", *check_coefficients(plan))


def _cmd_solve(plan, outdir: Path, threads: int):
    doc, sol, pts, grads = run_solve(plan)
    (outdir / "mesh.txt").write_text(sol.mesh.export_text())
    (outdir / "solution.txt").write_text(export_solution_text(sol))
    _write_csv(outdir / "gradients.csv", "x,y,comp,dudx,dudy",
               [[x, y, comp, g[comp, 0], g[comp, 1]]
                for (x, y), g in zip(pts, grads) for comp in range(g.shape[0])])
    print(f"solved epsilon={doc['epsilon']:g}: {doc['vertices']} vertices, "
          f"|grad u(0,0)| = {doc['grad_norm_origin']:.6g}")
    return "solve.json", doc, []


def _cmd_sweep(plan, outdir: Path, threads: int):
    doc, checks = run_sweep(plan, threads=threads)
    emit_tables(doc, outdir)
    fit = doc["fit"]
    print(f"fitted rho = {fit['rho']:.6g} +/- {fit['rho_halfwidth']:.3g}"
          + (" (degenerate data)" if fit["degenerate"] else ""))
    return "report.json", doc, checks


def _cmd_prop21(plan, outdir: Path, threads: int):
    return ("prop21.json", *check_prop21(plan))


def _cmd_energy_scaling(plan, outdir: Path, threads: int):
    doc, checks = check_energy_scaling(plan)
    for block in ("inner_center", "inner_edge", "outer"):
        _write_csv(outdir / f"energy_{block}.csv", "scale,energy", doc[block]["table"])
    return "energy.json", doc, checks


def _cmd_oracle_suite(plan, outdir: Path, threads: int):
    return ("oracle.json", *check_oracles(plan))


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


def _conclude(outdir: Path, artifact: str, doc: dict, checks: list) -> int:
    """Write ``doc`` with its checks and verdicts blocks, print one line per check.

    The line is ``PASS|FAIL|n/a <name>: <reason>``; the exit code is 1 when
    any check fails, else 0.
    """
    doc.update(check_block(checks))
    write_json(outdir / artifact, doc)
    for c in checks:
        print(f"{c.verdict if c.verdict == 'n/a' else c.verdict.upper()} {c.name}: {c.reason()}")
    return 1 if "fail" in doc["verdicts"].values() else 0


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
        plan = effective_config(args.config, args.overrides, args.seed)
    except (ConfigError, PlanError) as exc:
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
            result = COMMANDS[args.command](plan, outdir, threads)
    except (PlanError, ConfigurationError, GeometryError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    return _conclude(outdir, *result)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
