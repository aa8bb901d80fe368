"""The end-to-end checks that the Tier-1 tests leave out, in one script.

    python scripts/ci_checks.py

Run from anywhere; the package is imported from this checkout's ``src/``.
Each check runs the command line interface or the benchmark in a child
process and prints one line, ``PASS`` or ``FAIL`` with what it measured.
The script exits 1 when any check fails.  The checks:

* ``frontier --max-degree 22`` prints the pinned output (sha256) within 30 s
  and under a 40 MB peak resident set.  The peak guards frontier's per-degree
  ``trees._candidates.cache_clear()``: on CPython 3.10-3.13 the run peaks at
  29-35 MB with it and 46-51 MB without it, and no bench workload runs
  frontier.
* Huge degrees stop at the enumeration bound with exit code 3: degree 10^9
  within 10 s, 3-quadric degree 400 within 5 s.
* Each bench workload, run for one second, gets every outcome right, also
  traced; the traced golden run reaches ``relative.n_three`` through its
  3-quadric chi.
"""

import hashlib
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FRONTIER_22_SHA256 = "403ca753a39053dfc6a456bafa3baca5e5cca21a9a7b11ae1ad04b8a2d4a72cd"
FRONTIER_PEAK_MB = 40
CLI = [sys.executable, "-m", "welschinger.cli"]


def _run(argv, timeout_s):
    """(exit code, stdout, seconds, peak resident set in MB) of one child
    process, killed after ``timeout_s``.  The peak is the child's own, from
    wait4, so no earlier child's peak can leak into it."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
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


def check_bound(args, bound_s):
    code, _, seconds, _ = _run(CLI + args.split(), bound_s)
    return code == 3 and seconds < bound_s, f"{args}: exit {code} (expected 3) in {seconds:.2f} s (bound {bound_s} s)"


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
    if traced and workload == "golden":
        calls = result["metrics"]["relative.n_three_calls"]["value"]
        passed = passed and calls > 0
        note += f", relative.n_three_calls={calls} (must be > 0)"
    return passed, f"bench {workload}{' traced' if traced else ''}: {note}, {seconds:.1f} s"


def main() -> int:
    checks = [
        check_frontier,
        lambda: check_bound("poly --geometry cp2 --degree 1000000000", 10),
        lambda: check_bound("chi --geometry quadric3 --degree 1000000000 --real-points 2", 10),
        lambda: check_bound("chi --geometry quadric3 --degree 400 --real-points 2", 5),
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
