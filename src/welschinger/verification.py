"""Self-verification suite: every acceptance criterion as a callable check.

Each check returns (name, passed, details); ``run_all`` prints one line per
criterion and reports overall success.  The pytest acceptance module calls
the same functions, so the CLI ``verify`` subcommand and the test suite can
never drift apart.
"""

from __future__ import annotations

import random

from .assembly import check_congruence, check_sign_law, chi
from .contact import ContactVector, GeometryKind, LagrangianKind
from .cotangent import FKey, basis_f_engine, builtin_f_engine
from .errors import UnknownInvariant, UnresolvableFKey
from .relative import RelativeKey, RuledSurfaceClass, builtin_relative_table
from .trees import TreeFamily, canonical_form, enumerate_decorated_trees, enumerate_trees

__all__ = ["run_all", "all_checks", "GOLDEN_VALUES", "TREE_CLASS_COUNTS"]

G = GeometryKind

GOLDEN_VALUES = {
    G.PROJECTIVE_PLANE: {
        (4, 1): 0,
        (5, 0): 64,
        (5, 2): 64,
        (6, 1): 1024,
        (6, 3): 1536,
        (7, 0): -14336,
        (7, 2): 11776,
        (8, 1): -280576,
    },
    G.ELLIPSOID_QUADRIC2: {
        (2, 3): 2,
        (2, 5): 4,
        (2, 7): 6,
        (3, 1): 16,
        (3, 3): 16,
        (4, 1): -256,
        (4, 3): 320,
        (5, 1): 26880,
    },
    G.ELLIPSOID_QUADRIC3: {
        (2, 1): -1,
        (6, 1): 0,
        (10, 1): -896,
    },
}

TREE_CLASS_COUNTS = {
    TreeFamily.PROJECTIVE: {
        (4, 1): 0,
        (5, 0): 1,
        (5, 2): 1,
        (6, 1): 2,
        (6, 3): 2,
        (7, 0): 2,
        (7, 2): 5,
        (8, 1): 4,
    },
    TreeFamily.TWO_SPHERICAL: {(3, 1): 1, (3, 3): 1, (4, 1): 1, (4, 3): 3, (5, 1): 2},
    TreeFamily.THREE_SPHERICAL: {(2, 1): 1, (10, 1): 1},
}

# spot divisibilities quoted with the congruence statements
_DIVISIBILITY_SPOTS = [
    (512, 14336),
    (1024, 14336),
    (512, 280576),
    (1024, 280576),
    (64, 256),
    (16, 320),
    (256, 26880),
    (64, 896),
]


def _golden_suite(geometry: GeometryKind):
    def run():
        details = []
        ok = True
        for (d, r), want in sorted(GOLDEN_VALUES[geometry].items()):
            got = chi(geometry, d, r).value
            good = got == want
            ok = ok and good
            details.append(f"chi(d={d}, r={r}) = {got} (expected {want})")
        return ok, details

    return run


def _tree_count_suite():
    details = []
    ok = True
    for family, counts in TREE_CLASS_COUNTS.items():
        for (d, r), want in sorted(counts.items()):
            got = len(enumerate_trees(family, d, r))
            good = got == want
            ok = ok and good
            details.append(f"{family.value} (d={d}, r={r}): {got} classes (expected {want})")
    return ok, details


def _f_closure_suite():
    full = builtin_f_engine()
    basis = basis_f_engine()
    details = []
    ok = True
    derived = 0
    lemma_keys = [k for k in full.plain_keys() if k.kind is not LagrangianKind.SPHERE3]
    for key in sorted(lemma_keys, key=str):
        want = full.lookup(key)
        seeded = basis.lookup(key)
        values = {basis.value(key, order_seed=seed) for seed in range(10)}
        good = values == {want}
        ok = ok and good
        if seeded is None:
            derived += 1
            details.append(f"derived {key} = {want} (order-independent over 10 orderings)")
    good = derived == 17
    ok = ok and good
    details.append(f"{derived} plain values derived from the reduction basis (expected 17)")
    return ok, details


def _congruence_suite():
    details = []
    ok = True
    for geometry, table in GOLDEN_VALUES.items():
        for (d, r), value in sorted(table.items()):
            report = check_congruence(geometry, d, r, value)
            good = report.passed
            ok = ok and good
            applicable = [c for c in report.clauses if c.applicable]
            mods = ", ".join(f"{c.name} mod {c.modulus}" for c in applicable) or "no applicable clause"
            details.append(f"{geometry.value} (d={d}, r={r}): {mods} -> {'ok' if good else 'FAIL'}")
    for modulus, value in _DIVISIBILITY_SPOTS:
        good = value % modulus == 0
        ok = ok and good
        details.append(f"{modulus} | {value}: {'ok' if good else 'FAIL'}")
    return ok, details


def _sign_suite():
    details = []
    ok = True
    for geometry, table in GOLDEN_VALUES.items():
        for (d, r), value in sorted(table.items()):
            report = check_sign_law(geometry, d, r, value)
            if not report.applicable:
                continue
            ok = ok and report.passed
            details.append(
                f"{geometry.value} (d={d}, r={r}): {report.description} -> "
                f"{'ok' if report.passed else 'FAIL'}"
            )
    return ok, details


def _property_suite():
    rng = random.Random(20240229)
    details = []
    ok = True

    # validator round trip over every enumerated tree of the golden range
    checked = 0
    for family, counts in TREE_CLASS_COUNTS.items():
        for d, r in counts:
            for twc in enumerate_decorated_trees(family, d, r):
                problems = twc.tree.validate()
                if problems:
                    ok = False
                    details.append(f"validator: {problems}")
                checked += 1
    details.append(f"validator round-trip on {checked} enumerated trees")

    # canonical form is stable under 200 random relabelings
    pool = [
        twc.tree
        for family, counts in TREE_CLASS_COUNTS.items()
        for d, r in counts
        for twc in enumerate_decorated_trees(family, d, r)
    ]
    stable = 0
    for _ in range(200):
        tree = rng.choice(pool)
        shape = tree.shape
        image = rng.sample(range(1000, 2000), len(shape.adjacency))
        relabel = dict(zip(shape.adjacency, image))
        shuffled = type(tree).build(
            shape.family,
            shape.d,
            tree.r,
            relabel[shape.root],
            [(relabel[u], relabel[v], k) for u, v, k in shape.edges],
            {relabel[v]: g for v, g in shape.genus.items()},
            {relabel[v]: s for v, s in tree.signs},
        )
        if canonical_form(shuffled) == canonical_form(tree):
            stable += 1
    good = stable == 200
    ok = ok and good
    details.append(f"canonical form stable under {stable}/200 random relabelings")

    # unknown keys must raise, never default to zero
    table = builtin_relative_table()
    engine = builtin_f_engine()
    raised = 0
    for _ in range(100):
        n = rng.choice([2, 4])
        a = rng.randint(1, 3)
        b = rng.randint(5, 9)
        weight = b
        alpha = ContactVector.e(1, rng.randint(0, weight))
        beta = ContactVector.e(1, weight - alpha.size)
        key = RelativeKey(RuledSurfaceClass(n, a, b), alpha, beta)
        try:
            table.n_sigma(key)
        except UnknownInvariant:
            raised += 1
    good = raised == 100
    ok = ok and good
    details.append(f"error-on-unknown for {raised}/100 random off-table relative keys")

    f_raised = 0
    for _ in range(100):
        kind = rng.choice(list(LagrangianKind))
        beta = ContactVector.e(rng.randint(2, 3), rng.randint(2, 4))  # orders >= 2: off-table for every kind
        key = FKey(kind, ContactVector.zero(), beta, 0, 0)
        try:
            engine.value(key)
        except UnresolvableFKey:
            f_raised += 1
    good = f_raised == 100
    ok = ok and good
    details.append(f"error-on-unresolvable for {f_raised}/100 random cotangent keys")

    # ledger integrity: rows re-multiply and re-sum to the invariant
    rows_checked = 0
    for geometry, table_g in GOLDEN_VALUES.items():
        for d, r in table_g:
            result = chi(geometry, d, r)
            for row in result.ledger:
                product = row.sign * row.assignment_count * row.multiplicity * row.f_value
                for factor in row.relative_factors:
                    product *= factor
                if product != row.contribution:
                    ok = False
                    details.append(f"ledger row mismatch for {geometry.value} (d={d}, r={r})")
                rows_checked += 1
            if sum(row.contribution for row in result.ledger) != result.value:
                ok = False
                details.append(f"ledger sum mismatch for {geometry.value} (d={d}, r={r})")
    details.append(f"ledger integrity over {rows_checked} contribution rows")
    return ok, details


def all_checks():
    """(name, callable) pairs in acceptance order."""
    return [
        ("projective golden values", _golden_suite(G.PROJECTIVE_PLANE)),
        ("two-spherical golden values", _golden_suite(G.ELLIPSOID_QUADRIC2)),
        ("three-spherical golden values", _golden_suite(G.ELLIPSOID_QUADRIC3)),
        ("tree-count suite", _tree_count_suite),
        ("F-closure suite", _f_closure_suite),
        ("congruence suite", _congruence_suite),
        ("sign-law suite", _sign_suite),
        ("property suites", _property_suite),
    ]


def run_all(verbose: bool = False, stream=None) -> bool:
    import sys

    stream = stream or sys.stdout
    overall = True
    for name, check in all_checks():
        passed, details = check()
        overall = overall and passed
        print(f"[{'PASS' if passed else 'FAIL'}] {name}", file=stream)
        if verbose or not passed:
            for line in details:
                print(f"    {line}", file=stream)
    return overall
