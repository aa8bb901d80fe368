"""One benchmark pass, run in a fresh interpreter.

    python3 bench/worker.py <src-dir> < spec.json > result.json

The spec is a JSON object with ``ops`` (a list of ``[index, name, args]``),
``order_seed`` (used by ``derive``), ``op_limit_s`` and ``trace``.  The
pass times set-up first (import of the package plus the first load of the
built-in tables), then runs the operations one after another, each under a
wall-clock limit, and writes one JSON object: the set-up times, the times
of a fixed calibration kernel run before, during and after the operations,
an outcome and a latency per operation, the peak resident set and, when
traced, the layer summary.  An operation that hits its limit ends the pass.

Outcomes are ``["value", v]``, ``["miss", ExceptionName]`` for a typed
``WelschingerError``, ``["error", "Name: message"]`` for any other exception
and ``["timeout", null]``.
"""

import sys
import time


class OpTimeout(BaseException):
    """Raised by the alarm handler; a BaseException so library code that
    catches Exception cannot swallow it."""


def _alarm(signum, frame):
    raise OpTimeout


def _calibration_kernel():
    """Fixed pure-Python work that never touches the package, shaped like
    tree enumeration: tuples from itertools.product, list comprehensions
    and small dicts.  Of the kernels tried, its speed tracked that of the
    workloads most closely on a host whose speed drifts."""
    import itertools

    total = 0
    for parents in itertools.product(range(1), range(2), range(3), range(4), range(5), range(6)):
        kids = [i + 1 for i in range(6) if parents[i] == 0]
        links = [(parents[i], i + 1) for i in range(6) if parents[i] != 0]
        depth = {v: (p, 2 * v) for v, p in enumerate(parents)}
        total += len(kids) + len(links) + len(depth)
    return total


class Calibration:
    """Durations in ns of runs of the calibration kernel in this process.

    Besides explicit runs before and after the operations, the kernel runs
    from a SIGPROF handler after every ``SAMPLE_EVERY_S`` of CPU time, so
    that a long operation is calibrated while it runs.  ``paused_ns`` is
    the time spent there, which the operation's latency leaves out.  Traced
    passes do not sample, so that layer times hold no kernel time.
    """

    SAMPLE_EVERY_S = 0.2

    def __init__(self):
        self.samples = []
        self.paused_ns = 0

    def run(self, reps=5):
        if not self.samples:
            _calibration_kernel()  # the first run in a process is slower; not a sample
        for _ in range(reps):
            self.sample()

    def sample(self, *signal_args):  # also the SIGPROF handler
        start = time.perf_counter_ns()
        _calibration_kernel()
        elapsed = time.perf_counter_ns() - start
        self.samples.append(elapsed)
        if signal_args:
            self.paused_ns += elapsed


def _prepare(spec):
    """(index, call, summarize) per operation.

    Arguments are built here, outside the timed region.  Calls look their
    function up on the module at call time, so the traced run's wrappers
    apply to them.
    """
    import hashlib

    from welschinger import assembly, cotangent, relative, trees
    from welschinger.contact import ContactVector, GeometryKind, LagrangianKind

    canonical_form = trees.canonical_form  # the untraced one, for digests only
    state = {}

    def digest(classes):
        forms = sorted(canonical_form(t.tree) for c in classes for t in c.variants)
        return {"trees": len(forms), "digest": hashlib.sha256(b"\n".join(forms)).hexdigest()}

    def plain(result):
        return result

    def chi(g, d, r):
        g = GeometryKind(g)
        return (lambda: assembly.chi(g, d, r)), lambda res: res.value

    def enumerate_(family, d, r):
        family = trees.TreeFamily(family)
        return (lambda: trees.enumerate_trees(family, d, r)), digest

    def basis_engine():
        def call():
            state["engine"] = cotangent.basis_f_engine()
            return state["engine"]

        return call, lambda engine: len(engine.plain_keys())

    def derive(kind, alpha, beta, r_l, crosses):
        key = cotangent.FKey(
            LagrangianKind(kind), ContactVector(tuple(alpha)), ContactVector(tuple(beta)), r_l, crosses
        )
        seed = spec["order_seed"]
        return (lambda: state["engine"].derive(key, order_seed=seed)), lambda res: res.value

    def n_sigma(n, a, b, alpha, beta):
        key = relative.RelativeKey(
            relative.RuledSurfaceClass(n, a, b), ContactVector(tuple(alpha)), ContactVector(tuple(beta))
        )
        table = relative.builtin_relative_table()
        return (lambda: table.n_sigma(key)), plain

    def n_three(a, b, c, alpha, beta):
        alpha, beta = ContactVector(tuple(alpha)), ContactVector(tuple(beta))
        return (lambda: relative.n_three(a, b, c, alpha, beta)), plain

    def quadric_count(a, b):
        return (lambda: relative.quadric_count(a, b)), plain

    builders = {
        "chi": chi,
        "enumerate": enumerate_,
        "basis_engine": basis_engine,
        "derive": derive,
        "n_sigma": n_sigma,
        "n_three": n_three,
        "quadric_count": quadric_count,
    }
    return [(index, *builders[name](*args)) for index, name, args in spec["ops"]]


def _run(prepared, limit_s, calibration, sample_every_s):
    import signal

    from welschinger.errors import WelschingerError

    signal.signal(signal.SIGALRM, _alarm)
    signal.signal(signal.SIGPROF, calibration.sample)
    every = sample_every_s  # 0 leaves the SIGPROF timer off
    results = []
    for index, call, summarize in prepared:
        try:
            signal.setitimer(signal.ITIMER_REAL, limit_s)
            signal.setitimer(signal.ITIMER_PROF, every, every)
            paused = calibration.paused_ns
            start = time.perf_counter_ns()
            try:
                result = call()
            finally:
                elapsed = time.perf_counter_ns() - start
                signal.setitimer(signal.ITIMER_PROF, 0)
                signal.setitimer(signal.ITIMER_REAL, 0)
                elapsed -= calibration.paused_ns - paused
            outcome = ["value", summarize(result)]
        except OpTimeout:
            results.append([index, ["timeout", None], None])
            break
        except WelschingerError as exc:
            outcome = ["miss", type(exc).__name__]
        except Exception as exc:  # an untyped failure is a result to report, not a crash
            outcome = ["error", f"{type(exc).__name__}: {exc}"]
        results.append([index, outcome, elapsed])
    return results


def _peak_rss_kb():
    """Peak resident set of this process.

    ``ru_maxrss`` would do, but across exec it keeps the resident set of the
    process that spawned this one, so the kernel's high-water mark of this
    process's own memory is read where there is one.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main():
    start = time.perf_counter_ns()
    sys.path.insert(0, sys.argv[1])
    import welschinger

    imported = time.perf_counter_ns()
    welschinger.builtin_relative_table()
    welschinger.builtin_f_engine()
    loaded = time.perf_counter_ns()

    import json

    spec = json.load(sys.stdin)
    prepared = _prepare(spec)
    tracer = None
    if spec["trace"]:
        import tracer as tracing

        tracer = tracing.install()
    calibration = Calibration()
    calibration.run()
    every = 0 if spec["trace"] else Calibration.SAMPLE_EVERY_S
    results = _run(prepared, spec["op_limit_s"], calibration, every)
    if results:
        calibration.run()
    out = {
        "module": welschinger.__file__,
        "setup_ns": [imported - start, loaded - imported],
        "calibration_ns": calibration.samples,
        "results": results,
        "rss_kb": _peak_rss_kb(),
        "trace": tracer.summary() if tracer else None,
    }
    json.dump(out, sys.stdout)


if __name__ == "__main__":
    main()
