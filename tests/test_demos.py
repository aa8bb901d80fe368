"""The narrative scripts under demos/ run cleanly against the package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", ["cotangent_invariants", "ellipsoid_quadrics", "projective_plane", "splitting_trees"])
def test_demo_runs(name):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    script = ROOT / "demos" / f"{name}.py"
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout
