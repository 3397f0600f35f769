"""The benchmark's value gate, replayed in process.

Each workload of ``perfbench/workloads.py`` runs through ``thingap.cli.run``
with ``--seed 1 --threads 1``, as ``perfbench/run.py`` runs it, and every value
that ``workloads.headline_values`` reads from its outputs must equal
``perfbench/reference.json`` (the seed-independent ``values`` and the seed-1
``seeded`` ones, keyed ``<command index>:<key>``) within ``workloads.close``.
A change that moves an artifact number fails here before the benchmark runs.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from thingap.cli import run

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
_spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                               PERFBENCH / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

SEED = 1
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_values_match_the_benchmark_reference(tmp_path, workload):
    ref = REFERENCE["workloads"][workload]
    expected = {**ref["values"], **ref.get("seeded", {}).get(str(SEED % REFERENCE["seeds"]), {})}
    got = {}
    for i, cmd in enumerate(workloads.WORKLOADS[workload]["commands"]):
        out = tmp_path / str(i)
        assert run([*cmd, "--out", str(out), "--seed", str(SEED), "--threads", "1"]) == 0, cmd
        got.update({f"{i}:{key}": v for key, v in workloads.headline_values(out).items()})
    assert expected
    drift = {key: (got.get(key), want) for key, want in expected.items()
             if got.get(key) is None
             or not workloads.close(key.split(":", 1)[1], got[key], want)}
    assert not drift, f"{workload}: (value, reference) {drift}"
