"""The benchmark's workloads and the headline values checked in their outputs.

Each workload is a fixed list of ``thingap`` CLI commands run as a closed
loop with one client: every ``thingap.cli.run`` call starts after the
previous one returned.  Every command gets ``--seed``: the workload seed
modulo the number of seeds ``reference.json`` tabulates, so that the
seed-dependent values are checked exactly for any workload seed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

WORKLOADS = {
    # sweep + energy-scaling at defaults: what users run; import and
    # per-call overhead are a large share of it
    "headline": {"commands": [["sweep"], ["energy-scaling"]]},
    # 48-layer sweep: gate meshes reach ~42k free dofs, factorization and
    # assembly dominate; solver changes show here
    "lame-fine": {"commands": [["sweep", "--set", "mesh.layers=48"]]},
    # finite-difference and dense oracles, seminorm sampling and point
    # location; the solver is about 1% here
    "oracles": {"commands": [["oracle-suite"], ["prop21", "--set", "prop21.pairs=20000"]]},
}

# Artifact values that change with --seed; every other checked value does not.
SEED_DEPENDENT = {"oracle.seminorm_sampled", "oracle.seminorm_ratio", "prop21.stability"}
SEED_DEPENDENT_PREFIXES = ("prop21.per_epsilon_max.",)

# Values that are roundoff-sized differences of O(1) nodal fields: their
# tolerance is 1e-10 of the field scale 1, not of the value itself.
UNIT_SCALE = {"oracle.affine_nodal_error", "oracle.fd_vs_fem_scalar", "oracle.fd_vs_fem_lame"}

RTOL = 1e-10


def is_seed_dependent(key: str) -> bool:
    return key in SEED_DEPENDENT or key.startswith(SEED_DEPENDENT_PREFIXES)


def close(key: str, value: float, ref: float) -> bool:
    scale = 1.0 if key in UNIT_SCALE else max(abs(value), abs(ref))
    return abs(value - ref) <= RTOL * scale


def all_finite(obj) -> bool:
    """No null, NaN or infinity anywhere in a parsed JSON document."""
    if obj is None:
        return False
    if isinstance(obj, float):
        return math.isfinite(obj)
    if isinstance(obj, dict):
        return all(all_finite(v) for v in obj.values())
    if isinstance(obj, list):
        return all(all_finite(v) for v in obj)
    return True


def headline_values(outdir: Path) -> dict:
    """The checked values found in one command's output directory."""
    vals = {}
    p = outdir / "report.json"
    if p.exists():
        doc = json.loads(p.read_text())
        vals["sweep.rho"] = doc["fit"]["rho"]
        for i, rec in enumerate(doc["per_epsilon"]):
            vals[f"sweep.C_upper.{i}"] = rec["C_upper"]
            vals[f"sweep.C_lower.{i}"] = rec["C_lower"]
    p = outdir / "energy.json"
    if p.exists():
        doc = json.loads(p.read_text())
        for block in ("inner_center", "inner_edge", "outer"):
            vals[f"energy.{block}.exponent"] = doc[block]["exponent"]
    p = outdir / "oracle.json"
    if p.exists():
        doc = json.loads(p.read_text())
        for key in ("affine_nodal_error", "fd_vs_fem_scalar", "fd_vs_fem_lame",
                    "seminorm_dense", "seminorm_sampled"):
            vals[f"oracle.{key}"] = doc[key]
        vals["oracle.seminorm_ratio"] = doc["seminorm_sampled"] / doc["seminorm_dense"]
    p = outdir / "prop21.json"
    if p.exists():
        doc = json.loads(p.read_text())
        vals["prop21.stability"] = doc["stability"]
        for i, c in enumerate(doc["per_epsilon_max_constant"]):
            vals[f"prop21.per_epsilon_max.{i}"] = c
    return vals
