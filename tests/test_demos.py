import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demo_runs(script, tmp_path):
    env = dict(os.environ, PYTHONWARNINGS="error")     # as pyproject's filterwarnings
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(script)], env=env, cwd=tmp_path,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip()
