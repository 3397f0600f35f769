"""The thingap benchmark: one workload, fresh processes, many samples a run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload headline --seed 1 --seconds 30 --trace 0

Each sample is a fresh Python process (``worker.py``) that imports
``thingap.cli`` and then runs the workload's closed loop of CLI commands with
``--threads 1``, BLAS/OpenMP pools capped at ``nproc``.  Samples are taken
until ``--seconds`` of them have run.  Times of the workload are reported by
the run's fastest sample, set-up time and memory by the median (see
``BEST_OF``).  With ``--trace 0`` the last line reports the end-to-end
metrics; with ``--trace 1`` samples alternate untraced and traced processes
and the last line reports the per-layer metrics of the fastest traced one,
the share of its wall time no span covers and the share no span below the
``cli.run`` roots covers.  The tracing overhead (traced minus untraced wall
time) and the solver's error count are printed above it.

Every command of every sample is checked: exit code 0, every JSON artifact
finite, artifacts byte-identical across samples and tracing, and the
headline values equal to ``reference.json`` to 1e-10 relative.  Commands get
``--seed`` = the workload seed modulo the number of seeds ``reference.json``
tabulates, so the seed-dependent values are checked exactly too.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` (commands) and ``metrics``.  The exit code is 0 when a result was
printed, 2 when the benchmark could not run (for example outside a checkout).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, close  # noqa: E402

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
              "dofs_per_s": "dofs/s"}

# Which sample of a run a reported end-to-end value is.  Co-tenant load on a
# shared machine slows every process for tens of seconds at a time and never
# speeds one up, so the run's median wall time follows the load while its
# fastest sample stays put: over one 60-sample series of headline, runs of 7
# samples spread 0.27 (IQR / median) by their median and 0.07 by their
# fastest sample.  Set-up time and memory are reported as medians.
BEST_OF = {"wall_s": min, "cpu_s": min, "dofs_per_s": max}

# Per-layer metrics reported from the traced samples, with their units.
PER_LAYER = {
    "cli.self_s": "s", "cli.write_json.s": "s", "cli.emit_tables.s": "s",
    "cli.artifact_bytes": "bytes",
    "verify.self_s": "s", "verify.run_sweep.s": "s", "verify.check_energy_scaling.s": "s",
    "verify.fit_rate.calls": "count", "verify.remainder_energy.s": "s",
    "mesh.self_s": "s", "mesh.generate.s": "s", "mesh.refine.s": "s",
    "mesh.vertices": "count", "mesh.triangles": "count",
    "mesh.locate.calls": "count", "mesh.locate.s": "s",
    "coefficients.self_s": "s", "coefficients.eval_A_many.s": "s",
    "coefficients.eval_A_many.calls": "count", "coefficients.eval_A_many.points": "count",
    "solver.self_s": "s", "solver.assemble.s": "s", "solver.assemble.self_s": "s",
    "solver.assemble.triangles": "count", "solver.solve_first.s": "s",
    "solver.solve_cached.s": "s", "solver.factorizations": "count", "solver.solves": "count",
    "solver.factor_reuse": "solves/factor", "solver.free_dofs": "count",
    "solver.nnz_K": "count", "solver.gradient_at.calls": "count",
    "solver.gradient_at.s": "s",
    "auxiliary.self_s": "s", "auxiliary.holder_seminorm.s": "s",
    "auxiliary.holder_seminorm.calls": "count", "auxiliary.holder_seminorm.pairs": "count",
    "auxiliary.field_gradients.s": "s", "auxiliary.field_gradients.points": "count",
    "geometry.self_s": "s", "geometry.gap_width.calls": "count", "geometry.gap_width.s": "s",
    "oracle.self_s": "s", "oracle.finite_difference_reference.s": "s",
    "oracle.finite_difference_reference.unknowns": "count",
    "oracle.brute_force_seminorm.s": "s", "oracle.brute_force_seminorm.points": "count",
    "trace.spans": "count", "trace.uncovered_frac": "frac",
    "trace.unattributed_frac": "frac", "trace.wall_s": "s",
}

# Printed with the per-layer metrics but not in the result: they read 0 on a
# correct run (errors) or can be negative (overhead, a difference of two
# samples' wall times).
PER_LAYER_PRINTED = {"solver.errors": "count", "trace.overhead_s": "s",
                     "trace.overhead_frac": "frac"}

# Counts that describe the problem a workload solves; they repeat exactly, and
# a change in them means the workload changed, not its speed.
FINGERPRINT = ("mesh.vertices", "mesh.triangles", "solver.free_dofs", "solver.nnz_K",
               "solver.gradient_at.calls", "mesh.locate.calls",
               "auxiliary.holder_seminorm.pairs")

SLACK_S = 100.0         # per run, beyond --seconds, before a stuck sample is killed


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def blas_cap() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def environment() -> dict:
    """Versions, cores, the BLAS thread cap and cache sizes of this machine."""
    env = {"python": sys.version.split()[0], "nproc": blas_cap(),
           "cpu_count": os.cpu_count(), "blas_threads": blas_cap()}
    for pkg in ("numpy", "scipy"):
        try:
            env[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            env[pkg] = None
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data") and level in ("2", "3"):
            env[f"L{level}"] = size
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return env


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("THINGAP_OUT", None)         # would redirect the artifacts
    cap = str(blas_cap())
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = cap
    return env


def spawn(mode: str, workload: str, seed: int, scratch: Path, tag: int,
          deadline: float) -> dict:
    """Run one fresh worker process and return its result with ``setup_s``."""
    result = scratch / f"result{tag}.json"
    spec = {"workload": workload, "seed": seed, "mode": mode, "src": str(ROOT / "src"),
            "out": str(scratch / f"out{tag}"), "result": str(result)}
    timeout = max(5.0, deadline - time.monotonic())
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
                              cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} sample of {workload} did not finish in {timeout:.0f} s")
    t_end = time.monotonic()
    if proc.returncode != 0 or not result.exists():
        raise BenchError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    out = json.loads(result.read_text())
    out["setup_s"] = out["t_ready"] - t_spawn
    out["elapsed_s"] = t_end - t_spawn
    out["mode"] = mode
    return out


def sample(workload: str, seed: int, seconds: float, modes: list, scratch: Path) -> list:
    """Fresh processes cycling through ``modes`` for about ``seconds``.

    One of each mode always runs.  After that a sample is started only if,
    at the median duration of earlier samples of its mode, it ends less than
    half a sample past ``seconds``.
    """
    deadline = time.monotonic() + seconds + SLACK_S
    spawn("setup", workload, seed, scratch, 0, deadline)     # warms bytecode and page cache
    start = time.monotonic()
    samples = []
    while True:
        mode = modes[len(samples) % len(modes)]
        took = [s["elapsed_s"] for s in samples if s["mode"] == mode]
        if len(samples) >= len(modes):
            if time.monotonic() - start + 0.5 * statistics.median(took) > seconds:
                break
        samples.append(spawn(mode, workload, seed, scratch, len(samples) + 1, deadline))
    return samples


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def check(workload: str, seed: int, samples: list, reference: dict) -> tuple:
    """Gate every command; return (attempted, failed, problems).

    ``seed`` is the seed the commands ran with; the reference tabulates it.
    """
    ref = reference["workloads"][workload]
    expected = dict(ref["values"])
    expected.update(ref.get("seeded", {}).get(str(seed), {}))
    first_hashes = {}
    attempted = failed = 0
    problems = []
    for s in samples:
        for c in s["commands"]:
            attempted += 1
            why = []
            if c["rc"] != 0:
                why.append(f"exit code {c['rc']}")
            if not c["finite"]:
                why.append("non-finite JSON artifact")
            base = first_hashes.setdefault(c["cmd"], c["hashes"])
            if c["hashes"] != base:
                why.append("artifacts differ from the first run of this command")
            vals = c["values"]
            prefix = f"{c['cmd']}:"
            for key, want in expected.items():
                if key.startswith(prefix):
                    got = vals.get(key[len(prefix):])
                    if got is None or not close(key[len(prefix):], got, want):
                        why.append(f"{key} = {got!r}, reference {want!r}")
            if why:
                failed += 1
                problems.append(f"{s['mode']} sample, command {c['cmd']}: "
                                + "; ".join(why[:3]))
    return attempted, failed, problems


def end_to_end(samples: list) -> dict:
    """Per metric: (reported value, q1, median, q3, sample count)."""
    cols = {
        "setup_s": [s["setup_s"] for s in samples],
        "wall_s": [s["wall_s"] for s in samples],
        "cpu_s": [s["cpu_s"] for s in samples],
        "peak_rss_mb": [s["rss_mb"] for s in samples],
        "dofs_per_s": [s["free_dofs"] / s["wall_s"] for s in samples],
    }
    return {k: (BEST_OF.get(k, statistics.median)(v),) + quartiles(v) + (len(v),)
            for k, v in cols.items()}


def per_layer(traced: list, plain: list) -> tuple:
    """Layer metrics of the fastest traced sample; whether counts repeat.

    Taking every time from one sample keeps them consistent: the layers'
    self times add up to the covered part of that sample's wall time.
    """
    counts = [n for n, unit in PER_LAYER.items() if unit not in ("s", "frac")
              and n in traced[0]["layers"]]
    repeat = all(s["layers"][n] == traced[0]["layers"][n] for s in traced for n in counts)
    fastest = min(traced, key=lambda s: s["wall_s"])
    out = dict(fastest["layers"])
    wall_u = min(s["wall_s"] for s in plain)
    out["trace.wall_s"] = fastest["wall_s"]
    out["trace.overhead_s"] = fastest["wall_s"] - wall_u
    out["trace.overhead_frac"] = (fastest["wall_s"] - wall_u) / wall_u
    return out, repeat


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "thingap" / "cli.py").is_file():
        print(f"no thingap sources under {ROOT / 'src'}: run from a checkout", file=sys.stderr)
        return 2
    reference = json.loads((HERE / "reference.json").read_text())
    ref = reference["workloads"][args.workload]
    cli_seed = args.seed % reference["seeds"]
    if "seeded" in ref and str(cli_seed) not in ref["seeded"]:
        print(f"reference.json does not tabulate seed {cli_seed}", file=sys.stderr)
        return 2
    scratch = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        modes = ["plain", "traced"] if args.trace else ["plain"]
        samples = sample(args.workload, cli_seed, args.seconds, modes, scratch)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        if ROOT.joinpath(".perfbench").is_dir() and not any(ROOT.joinpath(".perfbench").iterdir()):
            ROOT.joinpath(".perfbench").rmdir()

    plain = [s for s in samples if s["mode"] == "plain"]
    traced = [s for s in samples if s["mode"] == "traced"]
    attempted, failed, problems = check(args.workload, cli_seed, samples, reference)
    correct = failed == 0

    print(f"workload {args.workload}  seed {args.seed} (commands get --seed {cli_seed})  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    print("env " + json.dumps(environment()))
    e2e = end_to_end(plain)
    for name, (value, q1, med, q3, n) in e2e.items():
        how = "best" if name in BEST_OF else "median"
        print(f"  {name:<12} {value:.6g} {END_TO_END[name]:<7} ({how} of {n})  "
              f"median {med:.6g}  IQR [{q1:.6g}, {q3:.6g}]")
    print(f"  {'failed_frac':<12} {failed / attempted:.6g}  ({failed} of {attempted} commands)")
    for p in problems[:10]:
        print(f"  FAILED {p}")

    if "seeded" in ref:
        print("seed-dependent values (checked against seed "
              f"{cli_seed} of reference.json): {', '.join(sorted(ref['seeded'][str(cli_seed)]))}")
    ref_fp = ref.get("fingerprint", {})
    if traced:
        layers, repeat = per_layer(traced, plain)
        if not repeat:
            correct = False
            print("  FAILED per-layer counts differ between traced samples")
        same = all(c["hashes"] == plain[0]["commands"][c["cmd"]]["hashes"]
                   for s in traced for c in s["commands"])
        print(f"traced artifacts byte-identical to untraced: {'yes' if same else 'NO'}")
        fastest = min(traced, key=lambda s: s["wall_s"])
        spans_file = ROOT / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.json"
        spans_file.parent.mkdir(exist_ok=True)
        spans_file.write_text(json.dumps({"fields": ["name", "parent", "start", "end",
                                                     "counters"],
                                          "wall_s": fastest["wall_s"],
                                          "spans": fastest["spans"]}))
        print(f"spans of the fastest traced sample: {spans_file.relative_to(ROOT)}")
        fp = {k: layers[k] for k in FINGERPRINT}
        for name, unit in {**PER_LAYER, **PER_LAYER_PRINTED}.items():
            print(f"  {name:<44} {layers[name]:.6g} {unit}")
        metrics = {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        fp = {"solver.free_dofs": plain[0]["free_dofs"]}
        metrics = {k: {"value": e2e[k][0], "unit": u} for k, u in END_TO_END.items()}
    changed = {k: (v, ref_fp.get(k)) for k, v in fp.items() if ref_fp.get(k) != v}
    print("fingerprint " + json.dumps(fp)
          + ("  (matches reference)" if not changed else
             f"  (differs from reference: {changed}; the workload changed)"))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
