"""Smoke test of the benchmark: every metric in BENCHMARK.json is emitted.

Usage (from the root of a checkout)::

    python3 perfbench/smoke.py

Runs ``run.py`` briefly on one workload with ``--trace 0`` and ``--trace 1``
and checks the last output line: exactly the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; a correct run; and exactly the end-to-end or
per-layer metrics of ``BENCHMARK.json``, each a finite number with the unit
declared there.  Then checks that the benchmark refuses to run, exit code
non-zero and no result, in a directory holding only ``BENCHMARK.json`` and
the benchmark's own files.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(cwd: Path, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "headline", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=180)


def fail(msg: str) -> None:
    print(f"FAIL {msg}")
    sys.exit(1)


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        proc = bench(ROOT, trace)
        if proc.returncode != 0:
            fail(f"--trace {trace} exited {proc.returncode}: {proc.stderr[-1000:]}")
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        if sorted(last) != ["attempted", "correct", "failed", "metrics"]:
            fail(f"--trace {trace}: result keys {sorted(last)}")
        if last["correct"] is not True or last["failed"] != 0 or last["attempted"] < 1:
            fail(f"--trace {trace}: run not correct: {proc.stdout[-2000:]}")
        want = {m["name"]: m["unit"] for m in spec[group]}
        got = last["metrics"]
        if set(got) != set(want):
            fail(f"--trace {trace}: missing {sorted(set(want) - set(got))}, "
                 f"extra {sorted(set(got) - set(want))}")
        for name, unit in want.items():
            m = got[name]
            if sorted(m) != ["unit", "value"] or m["unit"] != unit:
                fail(f"--trace {trace}: {name} is {m}, unit should be {unit}")
            if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
                fail(f"--trace {trace}: {name} value {m['value']!r}")
        print(f"ok --trace {trace}: {len(want)} {group} metrics with units")

    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(bare, 0)
        if proc.returncode == 0 or proc.stdout.strip():
            fail(f"benchmark ran without sources: exit {proc.returncode}, {proc.stdout!r}")
        print(f"ok without sources: exit {proc.returncode}, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    main()
