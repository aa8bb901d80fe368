"""The benchmark's contract with the package.

``bench/worker.py`` runs a traced pass on the package in ``src/``: the
tracer wraps the names it patches, and every operation must give the outcome
recorded in ``bench/reference.json``.  A rename or removal of a name the
worker or the tracer uses fails here instead of in a benchmark run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# one operation of each kind the workloads run; basis_engine comes before
# derive, which reads the engine it builds
OPS = [
    ["chi", ["cp2", 5, 0]],
    ["chi", ["quadric2", 8, 5]],
    ["enumerate", ["projective", 9, 0]],
    ["basis_engine", []],
    ["derive", ["rp2", [], [0, 0, 1], 0, 0]],
    ["n_sigma", [4, 1, 2, [], [0, 1]]],
    ["n_three", [0, 0, 1, [1], []]],
    ["quadric_count", [1, 2]],
]


def test_traced_worker_pass_gives_the_reference_outcomes():
    workloads = json.loads((ROOT / "bench" / "reference.json").read_text())["workloads"]
    expected = {json.dumps([op["op"], op["args"]]): op["expect"] for ops in workloads.values() for op in ops}
    spec = {"ops": [[i, name, args] for i, (name, args) in enumerate(OPS)], "order_seed": 0, "op_limit_s": 60, "trace": 1}
    proc = subprocess.run(
        [sys.executable, "bench/worker.py", "src"],
        input=json.dumps(spec),
        capture_output=True,
        text=True,
        cwd=ROOT,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert (ROOT / out["module"]).resolve() == ROOT / "src" / "welschinger" / "__init__.py"
    assert [outcome for _, outcome, _ in out["results"]] == [expected[json.dumps(op)] for op in OPS]
    trace = out["trace"]
    assert trace["trees.validate_calls"] > 0 and trace["assembly.chi_calls"] > 0
    # the derive and relative operations reach the functions the tracer wraps
    for name in ("cotangent.derive", "relative.n_sigma", "relative.n_three", "relative.quadric_count"):
        assert trace[f"{name}_calls"] > 0, name
