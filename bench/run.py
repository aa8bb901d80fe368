"""End-to-end and per-layer benchmark of the welschinger calculator.

    python3 bench/run.py --workload golden --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
Load is one client in a closed loop: a pass is a fresh interpreter
(``bench/worker.py``) that runs the workload's operations one after
another, as one ``welschinger chi/poly/frontier`` invocation does.  Passes
repeat while the next one is expected to end within ``--seconds``.  Every
outcome is compared with ``bench/reference.json``.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The line before it is a report with
the run stamp, sample counts, outcome counts and failures.  See
``bench/README.md`` for the workloads and what each metric should move.
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"

# name -> (shuffle the operation order of each pass, per-op wall-clock limit in s)
WORKLOADS = {
    "golden": (True, 10),
    "frontier": (True, 30),
    "deep": (False, 90),
    "tables": (False, 10),
}
SETUP_PROBES = 10  # passes without operations, so every workload has set-up samples
MIN_PASSES = 2
RUN_BUDGET_S = 170  # the whole run, traced passes included, ends within this
TRACED_PASSES = 2
# Times are reported at a reference speed: the one at which the calibration
# kernel (worker.py) takes this long.  See _speed.
REFERENCE_CALIBRATION_NS = 2_000_000

E2E_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_ms_p50": "ms", "op_ms_p90": "ms", "peak_rss_mb": "MB"}
LAYER_UNITS = {"_ms": "ms", "_ops_per_s": "1/s", "_ratio": "ratio"}


def _unit(name):
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    return next((u for suffix, u in LAYER_UNITS.items() if name.endswith(suffix)), "count")


class PassFailed(Exception):
    pass


def run_pass(spec, timeout_s, hash_seed=0):
    """Run one pass in a fresh interpreter and return its decoded result.

    Hash randomization moves the time of one enumeration by up to a fifth,
    so pass i of every run uses hash seed i: runs differ only in their inputs.
    Bytecode is cached as for an installed package, whatever the caller's
    environment says, so set-up times one configuration.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONHASHSEED"] = str(hash_seed)
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), str(SRC)],
            input=json.dumps(spec),
            capture_output=True,
            text=True,
            timeout=max(timeout_s, 1),
            env=env,
        )
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"pass killed after {exc.timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise PassFailed(f"pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    out = json.loads(proc.stdout)
    if not Path(out["module"]).resolve().is_relative_to(SRC.resolve()):
        raise PassFailed(f"welschinger was imported from {out['module']}, not from {SRC}")
    out["speed"] = _speed(out["calibration_ns"])
    return out


def _speed(calibration_ns):
    """Speed of a pass relative to the reference: the mean, over its
    calibration samples, of reference time over sample time.

    The host's CPU speed drifts by a quarter and more over minutes, for
    every process alike, so raw times from runs made minutes apart spread
    wider than any useful bound.  Every time a pass measures is multiplied
    by the speed measured in the same process around and during its
    operations; the samples are spread evenly over CPU time.
    """
    return statistics.fmean(REFERENCE_CALIBRATION_NS / ns for ns in calibration_ns)


def _latencies_ms(out, scale=True):
    factor = out["speed"] if scale else 1.0
    return [ns / 1e6 * factor for _, _, ns in out["results"] if ns is not None]


def _ops_per_s(out, scale=True):
    """Completed operations per second of operation time (set-up excluded)."""
    lat = _latencies_ms(out, scale)
    return len(lat) / (sum(lat) / 1e3) if lat else 0.0


def _end_to_end(passes, setups, scale=True):
    """The end-to-end metrics; ``setups`` holds (setup_ns, speed) pairs."""
    lat = [ms for out in passes for ms in _latencies_ms(out, scale)]
    return {
        "setup_s": statistics.median(sum(ns) * (speed if scale else 1.0) for ns, speed in setups) / 1e9,
        "ops_per_s": statistics.median(_ops_per_s(out, scale) for out in passes) if passes else 0.0,
        "op_ms_p50": statistics.median(lat) if lat else 0.0,
        "op_ms_p90": _quantile(lat, _tail_quantile(len(lat))) if lat else 0.0,
        "peak_rss_mb": statistics.median(out["rss_kb"] for out in passes) / 1024 if passes else 0.0,
    }


def _tail_quantile(n):
    """0.9, or the highest quantile with at least ten samples above it; the
    median when there are fewer than twenty samples."""
    return min(0.9, max(0.5, 1 - 10 / n))


def _quantile(values, q):
    values = sorted(values)
    pos = q * (len(values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def _op_id(op):
    return " ".join([op["op"], *map(str, op["args"])])


def _stamp():
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
            commit = git.stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    src_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, encoding="utf-8") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "commit": commit,
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": src_lines,
    }


def _layer_metrics(traced, untraced_ops_per_s, failures):
    """Per-layer metrics from the traced passes; counters must repeat exactly."""
    layers = [t["trace"] for t in traced]
    for name, value in layers[0].items():
        if not name.endswith("_ms") and name != "spans":
            seen = [layer[name] for layer in layers]
            if any(v != value for v in seen):
                failures.append(f"counter {name} differs between traced passes: {seen}")
    metrics = {
        name: statistics.fmean(t["trace"][name] * t["speed"] for t in traced) if name.endswith("_ms") else value
        for name, value in layers[0].items()
        if name != "spans"
    }
    traced_ops_per_s = statistics.median(_ops_per_s(t) for t in traced)
    metrics["trace.overhead_ops_per_s"] = untraced_ops_per_s - traced_ops_per_s
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "welschinger" / "__init__.py").is_file():
        sys.exit(f"bench: no package at {SRC / 'welschinger'}; run from the root of a checkout")
    begin = time.monotonic()
    deadline = begin + RUN_BUDGET_S
    shuffle, op_limit_s = WORKLOADS[args.workload]
    ops = json.loads((HERE / "reference.json").read_text())["workloads"][args.workload]
    rng = random.Random(args.seed)

    def spec(order, order_seed=None, trace=False):
        remaining = deadline - time.monotonic()
        return {
            "ops": [[i, ops[i]["op"], ops[i]["args"]] for i in order],
            "order_seed": order_seed,
            "op_limit_s": max(min(op_limit_s, remaining - 2), 0.5),
            "trace": trace,
        }

    # The first pass writes the bytecode cache.  If the package cannot even
    # be imported there is no result to print.
    try:
        run_pass(spec([]), deadline - time.monotonic())
        probes = [run_pass(spec([]), deadline - time.monotonic(), i) for i in range(SETUP_PROBES)]
    except PassFailed as exc:
        sys.exit(f"bench: set-up failed: {exc}")

    passes, failures = [], []
    lost_ops = 0  # operations of passes that died: attempted and failed
    first_spec = None
    start = time.monotonic()
    while len(passes) < MIN_PASSES or (time.monotonic() - start) * (len(passes) + 1) / len(passes) <= args.seconds:
        order = list(range(len(ops)))
        if shuffle:
            rng.shuffle(order)
        pass_spec = spec(order, rng.randrange(2**32))
        first_spec = first_spec or pass_spec
        try:
            out = run_pass(pass_spec, deadline - time.monotonic(), len(passes))
        except PassFailed as exc:
            failures.append(str(exc))
            lost_ops += len(ops)
            break
        passes.append(out)
        if out["results"][-1][1][0] == "timeout":
            break
    measured_s = time.monotonic() - start

    traced = []
    if args.trace and not failures:
        for _ in range(TRACED_PASSES):
            try:
                traced.append(run_pass(dict(first_spec, trace=True), deadline - time.monotonic()))
            except PassFailed as exc:
                failures.append(f"traced pass: {exc}")
                lost_ops += len(ops)
                break

    attempted = failed = lost_ops
    outcomes = {}  # op index -> first outcome seen
    for out in passes + traced:
        for index, outcome, _ in out["results"]:
            attempted += 1
            outcomes.setdefault(index, outcome)
            if outcome != ops[index]["expect"]:
                failed += 1
                if len(failures) < 20:
                    failures.append(f"{_op_id(ops[index])}: got {outcome}, reference {ops[index]['expect']}")
    kinds = {}
    for outcome in outcomes.values():
        kinds[outcome[0]] = kinds.get(outcome[0], 0) + 1

    setups = [(out["setup_ns"], out["speed"]) for out in probes + passes]
    end_to_end = _end_to_end(passes, setups)
    if args.trace:
        metrics = _layer_metrics(traced, end_to_end["ops_per_s"], failures) if len(traced) == TRACED_PASSES else {}
        metrics["setup.import_ms"] = statistics.median(ns[0] * speed for ns, speed in setups) / 1e6
        metrics["setup.table_load_ms"] = statistics.median(ns[1] * speed for ns, speed in setups) / 1e6
    else:
        metrics = end_to_end
    n_lat = sum(len(_latencies_ms(out)) for out in passes)

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "stamp": _stamp(),
        "passes": len(passes),
        "measured_s": measured_s,
        "latency_samples": n_lat,
        "tail_quantile": _tail_quantile(n_lat) if n_lat else None,
        "setup_samples": len(setups),
        "speed_median": statistics.median(speed for _, speed in setups),
        "unscaled": _end_to_end(passes, setups, scale=False),
        "failed_ratio": failed / attempted if attempted else 0.0,
        "outcome_kinds": kinds,
        "ops_never_run": len(ops) - len(outcomes),
        "failures": failures,
        "wall_s": time.monotonic() - begin,
    }
    if args.workload == "deep":
        report["trees"] = {_op_id(ops[i]): o[1]["trees"] for i, o in outcomes.items() if o[0] == "value"}
    if traced:
        report["spans_per_traced_pass"] = traced[0]["trace"]["spans"]
    correct = not failures and not failed and len(outcomes) == len(ops)
    print(json.dumps({"report": report}))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": _unit(name)} for name, value in metrics.items()},
            }
        )
    )


if __name__ == "__main__":
    main()
