"""Self-verification suite: every acceptance criterion as a callable check.

Each criterion's suite yields (passed, detail line or None) per check, and
``run_all`` prints one line per criterion and reports overall success.  The
pytest acceptance module calls the same functions, so the CLI ``verify``
subcommand and the test suite can never drift apart.
"""

from __future__ import annotations

import math
import random
from functools import cache, partial

from .assembly import Clause, check_congruence, check_sign_law, chi
from .contact import ContactVector, GeometryKind, LagrangianKind
from .cotangent import FKey, basis_f_engine, builtin_f_engine
from .errors import UnknownInvariant, UnresolvableFKey
from .relative import RelativeKey, RuledSurfaceClass, builtin_relative_table
from .trees import TreeFamily, canonical_form, enumerate_decorated_trees, enumerate_trees

__all__ = [
    "run_all", "all_checks", "GOLDEN_VALUES", "TREE_CLASS_COUNTS", "kontsevich_count", "wdvv_quadric_count", "gromov_witten_clause",
]

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


@cache
def kontsevich_count(d: int) -> int:
    """Rational plane curves of degree d through 3d - 1 points (Kontsevich
    1994): N_d = sum over a + b = d of N_a N_b (a^2 b^2 C(3d - 4, 3a - 2)
    - a^3 b C(3d - 4, 3a - 1)); ValueError for d < 1."""
    if d < 1:
        raise ValueError("degree must be >= 1")
    if d == 1:
        return 1
    return sum(
        kontsevich_count(a) * kontsevich_count(d - a)
        * (a**2 * (d - a) ** 2 * math.comb(3 * d - 4, 3 * a - 2) - a**3 * (d - a) * math.comb(3 * d - 4, 3 * a - 1))
        for a in range(1, d)
    )


@cache
def wdvv_quadric_count(a: int, b: int) -> int:
    """Rational curves of bidegree (a, b) on P1 x P1 through 2(a + b) - 1
    points, by the WDVV recursion (Kontsevich-Manin 1994): 2ab N(a, b) is the
    sum over nonzero (a1, b1) + (a2, b2) = (a, b) of N(a1, b1) N(a2, b2)
    (a1^3 b2^3 - a1^2 b1 a2 b2^2) C(2a + 2b - 2, 2a1 + 2b1 - 1), seeded by
    the rulings N(1, 0) = N(0, 1) = 1; a bidegree (a, 0) or (0, b) with a
    coefficient >= 2 holds no irreducible curve; ValueError for (0, 0), a < 0 or b < 0."""
    if min(a, b) < 0 or a == b == 0:
        raise ValueError("bidegree must be nonzero with coefficients >= 0")
    if a == 0 or b == 0:
        return int(max(a, b) == 1)
    total = sum(
        wdvv_quadric_count(a1, b1) * wdvv_quadric_count(a - a1, b - b1) * a1**2 * (b - b1) ** 2
        * (a1 * (b - b1) - b1 * (a - a1)) * math.comb(2 * a + 2 * b - 2, 2 * a1 + 2 * b1 - 1)
        for a1 in range(a + 1)
        for b1 in range(b + 1)
        if 0 < a1 + b1 < a + b
    )
    count, rest = divmod(total, 2 * a * b)
    if rest:
        raise ArithmeticError(f"WDVV: 2ab = {2 * a * b} does not divide {total} at bidegree ({a}, {b})")
    return count


_GW_COUNTS = {G.PROJECTIVE_PLANE: kontsevich_count, G.ELLIPSOID_QUADRIC2: lambda d: wdvv_quadric_count(d, d)}


def gromov_witten_clause(geometry: GeometryKind, d: int, value: int) -> Clause | None:
    """chi^d_r counts with signs the real curves among the N_d complex ones
    through the points, the others coming in conjugate pairs: so chi = N_d
    mod 2 and |chi| <= N_d.  None where no N_d is known (over the 3-quadric)."""
    if geometry not in _GW_COUNTS:
        return None
    n = _GW_COUNTS[geometry](d)
    return Clause(f"chi = N_d mod 2 and |chi| <= N_d = {n}", None, value % 2 == n % 2 and abs(value) <= n)


def _verdict(geometry: GeometryKind, d: int, r: int, law: str, passed: bool):
    return passed, f"{geometry.value} (d={d}, r={r}): {law} -> {'ok' if passed else 'FAIL'}"


def _golden_suite(geometry: GeometryKind):
    for (d, r), want in sorted(GOLDEN_VALUES[geometry].items()):
        got = chi(geometry, d, r).value
        yield got == want, f"chi(d={d}, r={r}) = {got} (expected {want})"


def _tree_count_suite():
    for family, counts in TREE_CLASS_COUNTS.items():
        for (d, r), want in sorted(counts.items()):
            got = len(enumerate_trees(family, d, r))
            yield got == want, f"{family.value} (d={d}, r={r}): {got} classes (expected {want})"


def _f_closure_suite():
    full = builtin_f_engine()
    basis = basis_f_engine()
    derived = 0
    lemma_keys = [k for k in full.plain_keys() if k.kind is not LagrangianKind.SPHERE3]
    for key in sorted(lemma_keys, key=str):
        want = full.lookup(key)
        seeded = basis.lookup(key)
        values = {basis.value(key, order_seed=seed) for seed in range(10)}
        derived += seeded is None
        yield values == {want}, None if seeded is not None else f"derived {key} = {want} (order-independent over 10 orderings)"
    yield derived == 17, f"{derived} plain values derived from the reduction basis (expected 17)"


def _congruence_suite():
    for geometry, table in GOLDEN_VALUES.items():
        for (d, r), value in sorted(table.items()):
            clauses = check_congruence(geometry, d, r, value)
            mods = ", ".join(f"{c.name} mod {c.modulus}" for c in clauses) or "no applicable clause"
            yield _verdict(geometry, d, r, mods, all(c.passed for c in clauses))
    for geometry in _GW_COUNTS:
        for (d, r), value in sorted(GOLDEN_VALUES[geometry].items()):
            clause = gromov_witten_clause(geometry, d, value)
            yield _verdict(geometry, d, r, clause.name, clause.passed)


def _sign_suite():
    for geometry, table in GOLDEN_VALUES.items():
        for (d, r), value in sorted(table.items()):
            if clause := check_sign_law(geometry, d, r, value):
                yield _verdict(geometry, d, r, clause.name, clause.passed)


def _property_suite():
    rng = random.Random(20240229)

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
        edges = [(relabel[u], relabel[v], k) for u, v, k in shape.edges]
        genus = {relabel[v]: g for v, g in shape.genus.items()}
        signs = {relabel[v]: s for v, s in tree.signs}
        shuffled = type(tree).build(shape.family, shape.d, tree.r, relabel[shape.root], edges, genus, signs)
        stable += canonical_form(shuffled) == canonical_form(tree)
    yield stable == 200, f"canonical form stable under {stable}/200 random relabelings"

    # unknown keys must raise, never default to zero
    raised = 0
    for _ in range(100):
        n = rng.choice([2, 4])
        a = rng.randint(2, 3)  # a section class (a = 1) is computed, never unknown
        b = rng.randint(5, 9)
        alpha = ContactVector.e(1, rng.randint(0, b))
        beta = ContactVector.e(1, b - alpha.size)
        key = RelativeKey(RuledSurfaceClass(n, a, b), alpha, beta)
        try:
            builtin_relative_table().n_sigma(key)
        except UnknownInvariant:
            raised += 1
    yield raised == 100, f"error-on-unknown for {raised}/100 random off-table relative keys"

    f_raised = 0
    for _ in range(100):
        kind = rng.choice(list(LagrangianKind))
        beta = ContactVector.e(rng.randint(2, 3), rng.randint(2, 4))  # orders >= 2: off-table for every kind
        key = FKey(kind, ContactVector.zero(), beta, 0, 0)
        try:
            builtin_f_engine().value(key)
        except UnresolvableFKey:
            f_raised += 1
    yield f_raised == 100, f"error-on-unresolvable for {f_raised}/100 random cotangent keys"

    # ledger integrity: rows re-multiply and re-sum to the invariant
    rows_checked = 0
    for geometry, table_g in GOLDEN_VALUES.items():
        for d, r in table_g:
            result = chi(geometry, d, r)
            for row in result.ledger:
                factors = (row.sign, row.assignment_count, row.multiplicity, row.f_value, *row.relative_factors)
                good = math.prod(factors) == row.contribution
                yield good, None if good else f"ledger row mismatch for {geometry.value} (d={d}, r={r})"
                rows_checked += 1
            good = sum(row.contribution for row in result.ledger) == result.value
            yield good, None if good else f"ledger sum mismatch for {geometry.value} (d={d}, r={r})"
    yield True, f"ledger integrity over {rows_checked} contribution rows"


def _collect(suite, *args) -> tuple[bool, list[str]]:
    """(passed, details) of a suite: every check runs; a None line prints nothing."""
    ok, details = True, []
    for good, line in suite(*args):
        ok = ok and good
        if line is not None:
            details.append(line)
    return ok, details


def all_checks():
    """(name, callable returning (passed, details)) pairs in acceptance order."""
    suites = [
        ("projective golden values", _golden_suite, G.PROJECTIVE_PLANE),
        ("two-spherical golden values", _golden_suite, G.ELLIPSOID_QUADRIC2),
        ("three-spherical golden values", _golden_suite, G.ELLIPSOID_QUADRIC3),
        ("tree-count suite", _tree_count_suite),
        ("F-closure suite", _f_closure_suite),
        ("congruence suite", _congruence_suite),
        ("sign-law suite", _sign_suite),
        ("property suites", _property_suite),
    ]
    return [(name, partial(_collect, *suite)) for name, *suite in suites]


def run_all(verbose: bool = False) -> bool:
    overall = True
    for name, check in all_checks():
        passed, details = check()
        overall = overall and passed
        print(f"[{'PASS' if passed else 'FAIL'}] {name}")
        if verbose or not passed:
            for line in details:
                print(f"    {line}")
    return overall
