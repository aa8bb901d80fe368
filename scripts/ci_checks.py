"""The end-to-end checks that the Tier-1 tests leave out, in one script.

    python scripts/ci_checks.py

Run from anywhere; the package is imported from this checkout's ``src/``.
Each check runs the command line interface or the benchmark in a child
process and prints one line, ``PASS`` or ``FAIL`` with what it measured.
The script exits 1 when any check fails.  The checks:

* ``frontier --max-degree 22`` prints the pinned output (sha256) within 30 s
  and under a 40 MB peak resident set.  The peak guards frontier's per-degree
  ``trees._candidates.cache_clear()``: on CPython 3.10-3.13 the run peaks at
  29-34 MB with it and 44-48 MB without it (the families' odd-subtree
  stores are kept either way), and no bench workload runs frontier.
* The frontier-22 domain, ``chi_polynomial`` for every geometry and degree
  up to 22 with the candidates cleared after each degree as ``frontier``
  clears them, leaves no reference cycle: with the collector off,
  ``gc.collect()`` finds nothing after it.  It calls the library, not the
  command line, whose argument parser leaves cycles of its own.
* Huge degrees stop at the enumeration bound with exit code 3: degree 10^9
  within 10 s, 3-quadric degree 400 within 5 s.
* The longest profile one argument holds, 18,000 terms ``e10000`` (125,999
  characters, under Linux's 128 KiB limit on one argument), parses as one
  vector: ``derive --kind rp2 --beta`` with it exits 3 within 5 s.
* Start-up: ten fresh interpreters each import the package and load the
  packaged F table and the built-in relative table, with bytecode cached as
  the benchmark caches it; none may import ``json``, which only an F
  override file needs.  The median import and load times are printed, not
  bounded.
* Each bench workload, run for one second, gets every outcome right, also
  traced; the traced golden run reaches ``relative.n_three`` through its
  3-quadric chi, and the traced frontier run reaches
  ``FInvariantEngine.derive`` through chi's ``F`` misses.
"""

import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FRONTIER_22_SHA256 = "403ca753a39053dfc6a456bafa3baca5e5cca21a9a7b11ae1ad04b8a2d4a72cd"
FRONTIER_PEAK_MB = 40
CLI = [sys.executable, "-m", "welschinger.cli"]
STARTUP_RUNS = 10
# one start-up: ns to import the package, ns to load the F and relative tables, whether json was imported
STARTUP = """
import sys, time
start = time.perf_counter_ns()
import welschinger
imported = time.perf_counter_ns()
welschinger.builtin_relative_table(), welschinger.builtin_f_engine()
loaded = time.perf_counter_ns()
print(imported - start, loaded - imported, int("json" in sys.modules))
"""

# the frontier-22 domain with the collector off: prints the unreachable objects it leaves
CYCLES = """
import gc
from welschinger import GeometryKind, chi_polynomial, trees
gc.collect()
gc.disable()
for geometry in GeometryKind:
    for d in range(1, 23):
        chi_polynomial(geometry, d)
        trees._candidates.cache_clear()
print(gc.collect())
"""


def _run(argv, timeout_s, cache_bytecode=False):
    """(exit code, stdout, seconds, peak resident set in MB) of one child
    process, killed after ``timeout_s``.  The peak is the child's own, from
    wait4, so no earlier child's peak can leak into it.  ``cache_bytecode``
    drops PYTHONDONTWRITEBYTECODE, as bench/run.py does for its passes, so
    that a start-up is timed as for an installed package."""
    env = dict(os.environ)
    if cache_bytecode:
        env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    start = time.perf_counter()
    child = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    timer = threading.Timer(timeout_s, child.kill)
    timer.start()
    try:
        out = child.stdout.read()
        _, status, usage = os.wait4(child.pid, 0)
    finally:
        timer.cancel()
        child.stdout.close()
    child.returncode = os.waitstatus_to_exitcode(status)  # reaped here: Popen must not wait for it again
    return child.returncode, out, time.perf_counter() - start, usage.ru_maxrss / 1024


def check_frontier():
    code, out, seconds, peak = _run(CLI + ["frontier", "--max-degree", "22"], 30)
    digest = hashlib.sha256(out).hexdigest()
    passed = code == 0 and digest == FRONTIER_22_SHA256 and peak < FRONTIER_PEAK_MB
    return passed, (
        f"frontier --max-degree 22: exit {code}, sha256 {digest[:8]}… (pinned {FRONTIER_22_SHA256[:8]}…), "
        f"peak RSS {peak:.1f} MB (bound {FRONTIER_PEAK_MB} MB), {seconds:.2f} s (bound 30 s)"
    )


def check_cycles():
    code, out, seconds, _ = _run([sys.executable, "-c", CYCLES], 30)
    left = out.decode().strip() or "nothing"
    return code == 0 and left == "0", f"frontier-22 domain: exit {code}, {left} objects in reference cycles (must be 0), {seconds:.2f} s"


def check_bound(argv, bound_s):
    code, _, seconds, _ = _run(CLI + argv, bound_s)
    label = " ".join(arg if len(arg) <= 40 else f"<{len(arg):,} characters>" for arg in argv)
    return code == 3 and seconds < bound_s, f"{label}: exit {code} (expected 3) in {seconds:.2f} s (bound {bound_s} s)"


def check_startup():
    samples = []
    for _ in range(STARTUP_RUNS):
        code, out, _, _ = _run([sys.executable, "-c", STARTUP], 30, cache_bytecode=True)
        if code != 0:
            return False, f"start-up: exit {code}"
        samples.append([int(x) for x in out.split()])
    with_json = sum(json_loaded for *_, json_loaded in samples)
    import_ms, load_ms = (statistics.median(sample[i] for sample in samples) / 1e6 for i in (0, 1))
    return with_json == 0, (
        f"start-up: {with_json} of {STARTUP_RUNS} fresh interpreters imported json (must be 0); "
        f"median import {import_ms:.2f} ms, table load {load_ms:.2f} ms"
    )


def check_bench(workload, traced):
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1", "--seconds", "1"]
    code, out, seconds, _ = _run(argv + ["--trace", "1" if traced else "0"], 600)
    lines = out.decode().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return False, f"bench {workload}{' traced' if traced else ''}: exit {code}, no result line"
    passed = code == 0 and result["correct"] is True
    note = f"correct={result['correct']}, {result['attempted']} attempted, {result['failed']} failed"
    # the layer each traced chi workload must reach, so that its counters are seen to move
    layer = {"golden": "relative.n_three_calls", "frontier": "cotangent.derive_calls"}.get(workload) if traced else None
    if layer:
        calls = result["metrics"][layer]["value"]
        passed = passed and calls > 0
        note += f", {layer}={calls} (must be > 0)"
    return passed, f"bench {workload}{' traced' if traced else ''}: {note}, {seconds:.1f} s"


def main() -> int:
    checks = [
        check_frontier,
        check_cycles,
        lambda: check_bound("poly --geometry cp2 --degree 1000000000".split(), 10),
        lambda: check_bound("chi --geometry quadric3 --degree 1000000000 --real-points 2".split(), 10),
        lambda: check_bound("chi --geometry quadric3 --degree 400 --real-points 2".split(), 5),
        lambda: check_bound(["derive", "--kind", "rp2", "--beta", "+".join(["e10000"] * 18000)], 5),
        check_startup,
    ]
    checks += [lambda w=w: check_bench(w, False) for w in ("golden", "frontier", "deep", "tables")]
    checks += [lambda w=w: check_bench(w, True) for w in ("golden", "frontier", "tables")]
    failed = 0
    for check in checks:
        passed, line = check()
        failed += not passed
        print(f"{'PASS' if passed else 'FAIL'} {line}", flush=True)
    print(f"{len(checks) - failed} of {len(checks)} checks passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
