"""Layer spans and counters for a traced benchmark pass.

``install()`` wraps the package's public functions from outside, where each
is looked up: ``assembly`` imports ``enumerate_trees``, ``canonical_form``,
``multiplicity`` and ``n_three`` by name, so those are patched in both
modules.  Each call of a wrapped function records a span (name, start, end,
parent span); a span's self time is its duration minus that of its child
spans.  Counters are read at the same boundaries.  Only the traced run pays
for this; the end-to-end numbers come from untraced passes.
"""

import time
from collections import Counter

# layer time metric -> span names whose self time it sums
LAYER_TIMES = {
    "trees.enumerate_ms": ("trees.enumerate", "trees.classes"),
    "trees.canonical_form_ms": ("trees.canonical_form",),
    "trees.assignment_count_ms": ("trees.assignment_count", "trees.automorphisms"),
    "trees.multiplicity_ms": ("trees.multiplicity",),
    "cotangent.derive_ms": ("cotangent.derive",),
    "relative.n_sigma_ms": ("relative.n_sigma",),
    "assembly.chi_self_ms": ("assembly.chi",),
}

# counters that must repeat exactly between two traced passes of one input
COUNTERS = (
    "trees.enumerate_calls",
    "trees.build_calls",
    "trees.validate_calls",
    "trees.canonical_form_calls",
    "trees.unique_trees",
    "trees.automorphisms_calls",
    "trees.aut_group_size_max",
    "trees.multiplicity_calls",
    "cotangent.derive_calls",
    "cotangent.table_hits",
    "cotangent.derived_nodes",
    "cotangent.depth_max",
    "cotangent.unresolvable",
    "relative.n_sigma_calls",
    "relative.n_three_calls",
    "relative.quadric_count_calls",
    "relative.unknown",
    "assembly.chi_calls",
    "assembly.ledger_rows",
    "assembly.missing",
)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index or -1]
        self.stack = []
        self.counts = Counter()
        # canonical_form calls made directly by enumeration, for the dedup ratio
        self.dedup_candidates = 0

    def span(self, name, fn, done=None):
        """Wrap fn in a span; ``done(span, result, exc)`` runs after each call."""

        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            record = [name, time.perf_counter_ns(), 0, parent]
            self.stack.append(len(self.spans))
            self.spans.append(record)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as error:  # re-raised; a timeout must reach the pass
                exc = error
                raise
            finally:
                record[2] = time.perf_counter_ns()
                self.stack.pop()
                self.counts[name + "_calls"] += 1
                if done is not None:
                    done(record, result, exc)

        return traced

    def counting(self, name, fn):
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def parent_name(self, record):
        return self.spans[record[3]][0] if record[3] >= 0 else None

    def summary(self):
        """Per-layer self times in ms, counters, and the span count."""
        child_ns = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self_ns = Counter()
        for i, (name, start, end, _) in enumerate(self.spans):
            self_ns[name] += end - start - child_ns[i]
        out = {
            metric: sum(self_ns[n] for n in names) / 1e6 for metric, names in LAYER_TIMES.items()
        }
        out.update({name: self.counts[name] for name in COUNTERS})
        unique = self.counts["trees.unique_trees"]
        out["trees.dedup_ratio"] = unique / self.dedup_candidates if self.dedup_candidates else 0.0
        out["spans"] = len(self.spans)
        return out


def _derivation_shape(root):
    """(table leaves, derived nodes, depth) of an FDerivation, shared nodes once."""
    depth = {}
    hits = derived = 0

    def visit(node):
        nonlocal hits, derived
        if id(node) in depth:
            return depth[id(node)]
        if node.rule == "table":
            hits += 1
        else:
            derived += 1
        depth[id(node)] = 1 + max((visit(child) for _, child in node.terms), default=-1)
        return depth[id(node)]

    height = visit(root)
    return hits, derived, height


def install():
    """Patch the package's layer boundaries and return the Tracer."""
    from welschinger import assembly, cotangent, relative, trees
    from welschinger.errors import DimensionMismatch, UnknownInvariant, UnresolvableFKey

    t = Tracer()
    counts = t.counts

    def enumerated(record, result, exc):
        if exc is None:
            counts["trees.unique_trees"] += len(result)

    def canonical(record, result, exc):
        if t.parent_name(record) == "trees.enumerate":
            t.dedup_candidates += 1

    def automorphisms(record, result, exc):
        if exc is None:
            counts["trees.aut_group_size_max"] = max(counts["trees.aut_group_size_max"], len(result))

    def derived(record, result, exc):
        if isinstance(exc, UnresolvableFKey):
            counts["cotangent.unresolvable"] += 1
        elif exc is None:
            hits, nodes, depth = _derivation_shape(result)
            counts["cotangent.table_hits"] += hits
            counts["cotangent.derived_nodes"] += nodes
            counts["cotangent.depth_max"] = max(counts["cotangent.depth_max"], depth)

    def relative_call(record, result, exc):
        # a miss is counted once, where it leaves the relative layer
        outer = not (t.parent_name(record) or "").startswith("relative.")
        if outer and isinstance(exc, (UnknownInvariant, DimensionMismatch)):
            counts["relative.unknown"] += 1

    def assembled(record, result, exc):
        if isinstance(exc, (UnknownInvariant, UnresolvableFKey)):
            counts["assembly.missing"] += 1
        elif exc is None:
            counts["assembly.ledger_rows"] += len(result.ledger)

    def patch(modules, attr, wrapper):
        for module in modules:
            setattr(module, attr, wrapper)

    tree_cls = trees.DecoratedTree
    tree_cls.build = classmethod(t.counting("trees.build_calls", tree_cls.build.__func__))
    tree_cls.validate = t.counting("trees.validate_calls", tree_cls.validate)
    trees.enumerate_decorated_trees = t.span("trees.enumerate", trees.enumerate_decorated_trees, enumerated)
    patch((trees, assembly), "enumerate_trees", t.span("trees.classes", trees.enumerate_trees))
    patch((trees, assembly), "canonical_form", t.span("trees.canonical_form", trees.canonical_form, canonical))
    trees.automorphisms = t.span("trees.automorphisms", trees.automorphisms, automorphisms)
    trees.assignment_count = t.span("trees.assignment_count", trees.assignment_count)
    patch((trees, assembly), "multiplicity", t.span("trees.multiplicity", trees.multiplicity))

    engine_cls = cotangent.FInvariantEngine
    engine_cls.derive = t.span("cotangent.derive", engine_cls.derive, derived)

    table_cls = relative.RelativeInvariantTable
    table_cls.n_sigma = t.span("relative.n_sigma", table_cls.n_sigma, relative_call)
    patch((relative, assembly), "n_three", t.span("relative.n_three", relative.n_three, relative_call))
    relative.quadric_count = t.span("relative.quadric_count", relative.quadric_count, relative_call)

    assembly.chi = t.span("assembly.chi", assembly.chi, assembled)
    return t
