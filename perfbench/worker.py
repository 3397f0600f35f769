"""One fresh workload process: set up, run the closed loop, check the outputs.

Usage: ``python3 perfbench/worker.py SPEC`` where SPEC is a JSON object with
``workload``, ``seed``, ``mode`` (``setup``, ``plain`` or ``traced``),
``src`` (the checkout's source directory, which the parent ``run.py`` puts
on ``PYTHONPATH``), ``out`` (artifact directory) and ``result`` (file the
result is written to).

Set-up ends when ``import thingap.cli`` returns, so that import is the first
statement.  ``wall_s`` starts after the hooks are installed and ends when the
last command of the loop returns.
"""

import time

import thingap.cli  # noqa: E402  (the set-up being measured)

T_READY = time.monotonic()

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402
from workloads import WORKLOADS, all_finite, headline_values  # noqa: E402


def _run_command(argv) -> int:
    try:
        return thingap.cli.run(argv)
    except Exception as exc:  # a traceback is a failed command, not a crashed benchmark
        print(f"command {argv} raised {exc!r}", file=sys.stderr)
        return -1


def _inspect(outdir: Path) -> dict:
    """Hashes, size, finiteness and headline values of one command's artifacts."""
    hashes, size, finite = {}, 0, True
    for p in sorted(outdir.iterdir()) if outdir.is_dir() else []:
        data = p.read_bytes()
        hashes[p.name] = hashlib.sha256(data).hexdigest()
        size += len(data)
        if p.suffix == ".json":
            try:
                finite &= all_finite(json.loads(data))
            except ValueError:
                finite = False
    try:
        values = headline_values(outdir)
    except (KeyError, TypeError, ValueError, ZeroDivisionError):
        values = {}
    return {"hashes": hashes, "bytes": size, "finite": finite, "values": values}


def main(spec: dict) -> dict:
    src = Path(spec["src"]).resolve()
    if src not in Path(thingap.cli.__file__).resolve().parents:
        raise SystemExit(f"imported {thingap.cli.__file__}, expected a module under {src}")
    if spec["mode"] == "setup":
        return {"t_ready": T_READY}
    wl = WORKLOADS[spec["workload"]]
    traced = spec["mode"] == "traced"
    if traced:
        recorder = spans.install_tracing()
    else:
        dofs = spans.install_dof_counter()
    out = Path(spec["out"])
    runs = []
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    for i, cmd in enumerate(wl["commands"]):
        d = out / str(i)
        rc = _run_command(cmd + ["--out", str(d), "--seed", str(spec["seed"]), "--threads", "1"])
        runs.append((i, d, rc))
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    commands = [dict(_inspect(d), cmd=i, rc=rc) for i, d, rc in runs]
    shutil.rmtree(out, ignore_errors=True)
    result = {"t_ready": T_READY, "wall_s": wall, "cpu_s": cpu, "rss_mb": rss_mb,
              "commands": commands, "layers": None}
    if traced:
        result["layers"] = spans.layer_metrics(recorder.spans, wall)
        result["layers"]["cli.artifact_bytes"] = sum(c["bytes"] for c in commands)
        result["free_dofs"] = result["layers"]["solver.free_dofs"]
        result["spans"] = recorder.spans
    else:
        result["free_dofs"] = dofs[0]
    return result


if __name__ == "__main__":
    spec = json.loads(sys.argv[1])
    result = main(spec)
    Path(spec["result"]).write_text(json.dumps(result))
