"""Write ``reference.json``: the values and sizes the benchmark checks against.

Usage (from the root of a checkout)::

    python3 perfbench/make_reference.py [--seeds 100]

For every workload one traced worker at seed 0 gives the seed-independent
headline values of each command (keyed ``<command index>:<value>``) and the
size fingerprint.  The seed-dependent values (sampled seminorms and prop21
constants) are tabulated for seeds ``0 .. seeds-1`` in this process; the
benchmark runs the commands with the workload seed modulo ``seeds``, so every
value it checks is tabulated.  Run it only on a commit whose outputs are known
to be right: every later run is judged against what it writes.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile

import run
from workloads import WORKLOADS, headline_values, is_seed_dependent


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=100)
    args = parser.parse_args()
    sys.path.insert(0, str(run.ROOT / "src"))
    import thingap.cli

    scratch = run.ROOT / ".perfbench" / "reference"
    scratch.mkdir(parents=True, exist_ok=True)
    doc = {"rtol": 1e-10, "seeds": args.seeds, "workloads": {}}
    try:
        for name, wl in WORKLOADS.items():
            res = run.spawn("traced", name, 0, scratch, 0, run.time.monotonic() + 600)
            values = {f"{c['cmd']}:{k}": v for c in res["commands"]
                      for k, v in c["values"].items() if not is_seed_dependent(k)}
            entry = {"values": values,
                     "fingerprint": {k: res["layers"][k] for k in run.FINGERPRINT}}
            seeded = {}
            if any(is_seed_dependent(k) for c in res["commands"] for k in c["values"]):
                for seed in range(args.seeds):
                    seeded[str(seed)] = {}
                    for i, cmd in enumerate(wl["commands"]):
                        with tempfile.TemporaryDirectory(dir=scratch) as out:
                            rc = thingap.cli.run(cmd + ["--out", out, "--seed", str(seed),
                                                        "--threads", "1"])
                            if rc != 0:
                                raise SystemExit(f"{name} {cmd} seed {seed} exited {rc}")
                            vals = headline_values(run.Path(out))
                        seeded[str(seed)].update({f"{i}:{k}": v for k, v in vals.items()
                                                  if is_seed_dependent(k)})
                entry["seeded"] = seeded
            doc["workloads"][name] = entry
            print(f"{name}: {len(values)} values, {len(seeded)} seeds tabulated", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    (run.HERE / "reference.json").write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
