"""Cotangent invariants: curated bases, reduction rules, derivation engine."""

import hashlib
import re
from itertools import zip_longest

import pytest

from welschinger import (
    ContactVector,
    FInvariantEngine,
    FKey,
    GeometryKind,
    LagrangianKind,
    NegativeDimension,
    UnresolvableFKey,
    WelschingerError,
    admissible_real_counts,
    basis_f_engine,
    builtin_f_engine,
    chi,
    tables,
)
from welschinger.cotangent import _reduction

CV = ContactVector
K = LagrangianKind
e1, e2, e3 = CV.e(1), CV.e(2), CV.e(3)
zero = CV.zero()

SPHERE2_VALUES = {
    (e1, zero): 1,
    (zero, e1): 1,
    (e2, zero): 2,
    (zero, e2): 8,
    (CV.e(1, 2), zero): 2,
    (e1, e1): 4,
    (zero, CV.e(1, 2)): 6,
}
RP2_VALUES = {
    (e1, zero): 1,
    (zero, e1): 1,
    (e2, zero): 1,
    (CV.e(1, 2), zero): 1,
    (e1, e1): 1,
    (zero, CV.e(1, 2)): 1,
    (zero, e2): 4,
    (e3, zero): 2,
    (zero, e3): 12,
    (CV((1, 1)), zero): 2,
    (e1, e2): 8,
    (e2, e1): 4,
    (zero, CV((1, 1))): 24,
    (CV.e(1, 3), zero): 2,
    (CV.e(1, 2), e1): 4,
    (e1, CV.e(1, 2)): 6,
    (zero, CV.e(1, 3)): 8,
}


def test_sphere2_table():
    for (alpha, beta), value in SPHERE2_VALUES.items():
        assert builtin_f_engine().value(FKey(K.SPHERE2, alpha, beta)) == value


def test_rp2_table():
    for (alpha, beta), value in RP2_VALUES.items():
        assert builtin_f_engine().value(FKey(K.RP2, alpha, beta)) == value


def test_sphere3_value():
    assert builtin_f_engine().value(FKey(K.SPHERE3, e1, zero)) == -1


def test_examples_with_specified_real_points():
    assert builtin_f_engine().value(FKey(K.SPHERE2, zero, CV.e(1, 2))) == 6
    assert FKey(K.SPHERE2, zero, CV.e(1, 2)).r == 7
    assert builtin_f_engine().value(FKey(K.RP2, zero, CV((1, 1)))) == 24
    assert FKey(K.RP2, zero, CV((1, 1))).r == 6
    assert FKey(K.SPHERE3, e1, zero).r == 1


# -- reduction rules ----------------------------------------------------------


def reduction(key):
    """:func:`_reduction` of ``key``'s fields, each child as (coefficient,
    its FKey, the r its rule gives it); None when neither rule applies."""
    step = _reduction(key.alpha.counts, key.beta.counts, key.r_l, key.crosses, key.r)
    if step is None:
        return None
    rule, terms = step
    return rule, [(c, FKey(key.kind, CV(a), CV(b), r_l, crosses), r) for c, (a, b, r_l, crosses, r) in terms]


def pair_to_real(key):
    rule, combo = reduction(key)
    assert rule == "pair-to-real"
    return combo


def assert_unresolvable(key):
    # neither rule applies, and a walk from an empty table names the key
    assert reduction(key) is None
    with pytest.raises(UnresolvableFKey, match=re.escape(f"{key} is outside the derivable closure")):
        FInvariantEngine({}).derive(key)


def test_pair_to_real_coefficients():
    combo = pair_to_real(FKey(K.SPHERE2, zero, e2, r_l=1))
    assert [(c, k.alpha, k.beta, k.r_l) for c, k, _ in combo] == [(2, e2, zero, 0)]
    engine = builtin_f_engine()
    assert engine.value(FKey(K.SPHERE2, zero, e2, r_l=1)) == 4

    combo = pair_to_real(FKey(K.RP2, zero, CV((1, 1)), r_l=1))
    assert sorted((c, str(k.alpha), str(k.beta)) for c, k, _ in combo) == [
        (1, "e1", "e2"),
        (2, "e2", "e1"),
    ]
    assert engine.value(FKey(K.RP2, zero, CV((1, 1)), r_l=1)) == 8 + 2 * 4

    # the coefficient is the order k alone, without a beta_k factor
    combo = pair_to_real(FKey(K.SPHERE2, zero, CV.e(1, 2), r_l=1))
    assert [(c, str(k.alpha), str(k.beta)) for c, k, _ in combo] == [(1, "e1", "e1")]
    assert engine.value(FKey(K.SPHERE2, zero, CV.e(1, 2), r_l=1)) == 4


def test_pair_to_real_requires_free_contact():
    # a conjugate pair but no free orbit: real-pair-to-cross needs r_L = 0
    assert_unresolvable(FKey(K.SPHERE2, e2, zero, r_l=1))


def test_real_pair_to_cross_chains():
    engine = basis_f_engine()
    # chain: value = 2 * (cross term) + (pair term)
    rule, combo = reduction(FKey(K.SPHERE2, zero, CV.e(1, 2)))
    assert rule == "real-pair-to-cross"
    assert [(c, k.crosses, k.r_l) for c, k, _ in combo] == [(2, 1, 0), (1, 0, 1)]
    assert engine.value(combo[0][1]) == 1
    assert engine.value(combo[1][1]) == 4
    assert engine.value(FKey(K.SPHERE2, zero, CV.e(1, 2))) == 2 + 4

    assert engine.value(FKey(K.RP2, e3, zero)) == 2  # 2*1 + 0
    assert engine.value(FKey(K.SPHERE2, CV.e(1, 2), zero)) == 2  # 2*1 + 0


def test_real_pair_to_cross_preconditions():
    assert_unresolvable(FKey(K.SPHERE2, e1, zero))  # r = 1
    # a key with a conjugate pair and a free orbit is never collided
    assert [k.r_l for _, k, _ in pair_to_real(FKey(K.SPHERE2, zero, e2, r_l=1))] == [0]


# -- closure and confluence ---------------------------------------------------


def test_closure_reproduces_lemma_tables():
    basis = basis_f_engine()
    derived = 0
    for kind, table in ((K.SPHERE2, SPHERE2_VALUES), (K.RP2, RP2_VALUES)):
        for (alpha, beta), value in table.items():
            key = FKey(kind, alpha, beta)
            assert basis.value(key) == value
            if basis.lookup(key) is None:
                derived += 1
    assert derived == 17


def test_closure_is_order_independent():
    basis = basis_f_engine()
    keys = [
        FKey(K.RP2, zero, CV((1, 1))),
        FKey(K.RP2, zero, CV.e(1, 3)),
        FKey(K.SPHERE2, zero, CV.e(1, 2)),
        FKey(K.SPHERE2, zero, e2),
    ]
    for key in keys:
        reference = basis.value(key)
        assert {basis.value(key, order_seed=s) for s in range(10)} == {reference}


def test_derivation_chain_structure():
    chain = basis_f_engine().derive(FKey(K.RP2, zero, e3))
    assert chain.value == 12
    assert chain.rule == "real-pair-to-cross"
    text = str(chain)
    assert "pair-to-real" in text and "table" in text


def test_unresolvable_keys_raise():
    engine = builtin_f_engine()
    with pytest.raises(UnresolvableFKey):
        engine.value(FKey(K.SPHERE3, CV.e(1, 2), zero))
    with pytest.raises(UnresolvableFKey):
        builtin_f_engine().value(FKey(K.RP2, CV.e(4), zero))


GRID_KEYS = [
    FKey(kind, alpha, beta, r_l, crosses)
    for kind in K
    for alpha in (zero, e1, e2, CV.e(1, 2))
    for beta in (zero, e1, e3, CV((1, 1)))
    for r_l in range(3)
    for crosses in range(2)
]


def total_profile(key):
    """The counts of alpha and beta added order by order, as a list."""
    return [a + b for a, b in zip_longest(key.alpha.counts, key.beta.counts, fillvalue=0)]


def moved(vector, k, step):
    """``vector`` with ``step`` more contacts of order k, by count-list arithmetic."""
    counts = list(vector.counts) + [0] * k
    counts[k - 1] += step
    return CV(tuple(counts))


def reducible(keys):
    """(key, rule, combo) for each key that takes a reduction step."""
    for key in keys:
        try:
            step = reduction(key)
        except WelschingerError:  # a negative real-point count
            continue
        if step is not None:
            yield key, *step


def test_reductions_preserve_dimension_bookkeeping():
    # pair-to-real keeps r, real-pair-to-cross lowers it by 2: the r a child
    # carries must be the one the dimension equation gives its fields
    key = FKey(K.RP2, zero, CV((1, 1)), r_l=1)
    for _, child, r in pair_to_real(key):
        assert r == child.r == key.r == 4
    key = FKey(K.SPHERE2, zero, e2)
    for _, child, r in reduction(key)[1]:
        assert r == child.r == key.r - 2 == 3
    # pair-to-real moves one contact from beta to alpha, real-pair-to-cross
    # moves none: every child keeps its parent's kind and total profile
    rules = set()
    for key, rule, combo in reducible(GRID_KEYS):
        rules.add(rule)
        for _, child, _ in combo:
            assert child.kind is key.kind and total_profile(child) == total_profile(key)
    assert rules == {"pair-to-real", "real-pair-to-cross"}


def packaged_rows():
    return tables._packaged_payload(tables.F_TABLE)["entries"]


def test_reduction_steps_match_the_rules_written_with_vector_arithmetic():
    # the oracle: each rule built from count-list arithmetic and fresh keys,
    # over the key grid and every key met deriving the packaged keys from the basis
    basis, reached = basis_f_engine(), []

    def walk(node):
        reached.append(node.key)
        for _, child in node.terms:
            walk(child)

    for row in packaged_rows():
        walk(basis.derive(FKey(K(row["kind"]), CV(tuple(row["alpha"])), CV(tuple(row["beta"])), row["r_l"], row["crosses"])))
    steps = 0
    for key, rule, combo in reducible(GRID_KEYS + reached):
        if rule == "pair-to-real":
            expected = [
                (k, FKey(key.kind, moved(key.alpha, k, 1), moved(key.beta, k, -1), key.r_l - 1, key.crosses))
                for k in range(1, len(key.beta.counts) + 1)
                if key.beta.counts[k - 1]
            ]
        else:
            expected = [
                (2, FKey(key.kind, key.alpha, key.beta, 0, key.crosses + 1)),
                (1, FKey(key.kind, key.alpha, key.beta, 1, key.crosses)),
            ]
        assert [(c, child) for c, child, _ in combo] == expected, key
        assert [r for _, _, r in combo] == [oracle.r for _, oracle in expected], key
        steps += 1
    assert len(reached) > len(packaged_rows()) and steps > 100


@pytest.mark.parametrize(
    "row,message",
    [
        ({"kind": "rp2", "alpha": [], "beta": [1], "value": 2}, "row 1 lists a key again with value 2, not 1"),
        ({"kind": "rp2", "alpha": [], "beta": [True], "value": 1}, "row 1: field 'beta' must be a list of ints"),
        ({"kind": "rp2", "alpha": [], "beta": [1], "value": "1"}, "row 1: field 'value' must be int"),
        ({"kind": "rp2", "alpha": [], "beta": [1], "r_l": 1.0, "value": 1}, "row 1: field 'r_l' must be int"),
        ({"kind": "rp2", "alpha": [-1], "beta": [1], "value": 1}, "row 1: contact multiplicities must be non-negative"),
        ({"kind": "rp_2", "alpha": [], "beta": [1], "value": 1}, "row 1: 'rp_2' is not a valid LagrangianKind"),
        ({"kind": "sphere2", "alpha": [1], "beta": [], "r_l": 3, "value": 1}, "row 1: no non-negative real-point count"),
        (
            {"kind": "rp2", "alpha": [1], "beta": [], "crosses": 1, "value": 1},
            "row 1: no non-negative real-point count for rp2, alpha=e1, beta=0, r_L=0, crosses=1",
        ),
        ({"kind": "rp2", "alpha": [], "beta": [1], "crosses": -1, "value": 1}, "row 1: conjugate pair and cross counts must be >= 0"),
    ],
)
def test_f_table_rejects_bad_rows(row, message):
    # the first row is F[rp2](0, e1) = 1; a repeat with the same value is allowed
    first = {"kind": "rp2", "alpha": [], "beta": [1, 0], "value": 1}
    engine = FInvariantEngine.from_json_payload({"entries": [first, dict(first, beta=[1])]})
    assert engine.lookup(FKey(K.RP2, zero, e1)) == 1
    with pytest.raises(WelschingerError) as exc:
        FInvariantEngine.from_json_payload({"entries": [first, row]}, where="f.json")
    assert str(exc.value).startswith("f.json: ") and message in str(exc.value)


def test_packaged_table_is_checked_once_and_each_basis_engine_is_fresh(monkeypatch):
    from welschinger import cotangent

    calls = []
    check = cotangent._checked_rows

    def counted(payload, where):
        calls.append(where)
        return check(payload, where)

    monkeypatch.setattr(cotangent, "_checked_rows", counted)
    cotangent._packaged_table.cache_clear()
    cotangent.builtin_f_engine.cache_clear()
    first, second = basis_f_engine(), basis_f_engine()
    assert calls == ["F table"]
    assert first is not second and first._entries == second._entries
    first._entries.clear()
    assert len(second._entries) == len(basis_f_engine()._entries) == 30
    # the built-in engine reads the same check, and holds its own copy
    assert len(builtin_f_engine()._entries) == 47 and calls == ["F table"]
    assert len(basis_f_engine()._entries) == 30


def test_real_point_count_is_computed_once_per_key(monkeypatch):
    from welschinger import cotangent

    calls = []
    count = cotangent.f_point_count

    def counted(*args):
        calls.append(args)
        return count(*args)

    monkeypatch.setattr(cotangent, "f_point_count", counted)
    key = FKey(K.RP2, zero, CV((1, 1)), crosses=1)
    assert key.r == key.r == 4 and str(key) == "F[rp2]_(4+x,0)(0, e1+e2)"
    assert len(calls) == 1
    # the cached value takes no part in equality, hashing or repr
    fresh = FKey(K.RP2, zero, CV((1, 1)), crosses=1)
    assert fresh == key and hash(fresh) == hash(key) and repr(fresh) == repr(key)


def test_every_packaged_row_is_found_under_its_own_key():
    # the loader and lookup build a row's table key the same way
    rows = packaged_rows()
    assert len(rows) == 47 and sum(1 for row in rows if row["r_l"] or row["crosses"]) == 22
    assert sum(1 for row in rows if row.get("basis")) == 30
    full, basis = builtin_f_engine(), basis_f_engine()
    for row in rows:
        key = FKey(K(row["kind"]), CV(tuple(row["alpha"])), CV(tuple(row["beta"])), row["r_l"], row["crosses"])
        assert full.lookup(key) == row["value"], row
        assert basis.lookup(key) == (row["value"] if row.get("basis") else None), row


def test_value_reads_a_hit_that_derive_agrees_with():
    # value and plain_value read a table hit without derive; derive's root is that same hit
    override = FInvariantEngine.from_json_payload(
        {"entries": [{"kind": "rp2", "alpha": [], "beta": [1], "value": 5}, {"kind": "sphere2", "alpha": [1], "beta": [1], "r_l": 1, "value": 7}]}
    )
    packaged = [(K(row["kind"]), row["alpha"], row["beta"], row["r_l"], row["crosses"]) for row in packaged_rows()]
    cases = [(builtin_f_engine(), packaged), (override, [(K.RP2, [], [1], 0, 0), (K.SPHERE2, [1], [1], 1, 0)])]
    for engine, rows in cases:
        for kind, alpha, beta, r_l, crosses in rows:
            key = FKey(kind, CV(tuple(alpha)), CV(tuple(beta)), r_l, crosses)
            assert engine.value(key) == engine.lookup(key) == engine.derive(key).value, key
            if not (r_l or crosses):
                assert engine.plain_value(kind, key.alpha.counts, key.beta.counts) == engine.value(key), key
    # a miss is derived from the same key, and a key with no real-point count still raises
    basis = basis_f_engine()
    assert basis.lookup(FKey(K.RP2, zero, CV((1, 1)))) is None
    assert basis.plain_value(K.RP2, (), (1, 1)) == basis.derive(FKey(K.RP2, zero, CV((1, 1)))).value == 24
    with pytest.raises(UnresolvableFKey) as excinfo:
        override.plain_value(K.RP2, (), (0, 1))
    assert str(excinfo.value) == "F[rp2]_(1+x,0)(0, e2) is outside the derivable closure"
    for engine in (builtin_f_engine(), override):
        with pytest.raises(NegativeDimension):
            engine.value(FKey(K.RP2, zero, zero))
        with pytest.raises(NegativeDimension):
            engine.plain_value(K.RP2, (), ())


# -- the one walk -------------------------------------------------------------


def outcome(resolve, key, seed):
    """The value ``resolve`` gives ``key`` under ``seed``, or its error's type and message."""
    try:
        return resolve(key, seed)
    except WelschingerError as exc:
        return type(exc), str(exc)


def chi_root_keys(monkeypatch, max_degree):
    """Every root F key chi looks up at each admissible (geometry, d <= max_degree, r)."""
    seen = set()
    plain_value = FInvariantEngine.plain_value

    def recorded(self, kind, alpha, beta):
        seen.add((kind, alpha, beta))
        return plain_value(self, kind, alpha, beta)

    with monkeypatch.context() as patch:
        patch.setattr(FInvariantEngine, "plain_value", recorded)
        for geometry in GeometryKind:
            for d in range(1, max_degree + 1):
                for r in admissible_real_counts(geometry, d):
                    try:
                        chi(geometry, d, r)
                    except WelschingerError:  # a miss has looked up every key to the failing one
                        pass
    return [FKey(kind, CV(alpha), CV(beta)) for kind, alpha, beta in sorted(seen, key=repr)]


def test_value_and_derive_agree_on_every_key_and_order(monkeypatch):
    # the order of a reduction's terms changes neither F nor why a key
    # misses: each key has one value, or one error type and reason, under all
    # eleven orders on both engines.  The key a miss names is the first leaf
    # outside the closure that the walk meets, so it may differ by order.
    keys = chi_root_keys(monkeypatch, 12)
    keys += [FKey(K(row["kind"]), CV(tuple(row["alpha"])), CV(tuple(row["beta"])), row["r_l"], row["crosses"]) for row in packaged_rows()]
    for alpha, beta, kind in ((zero, CV((1, 1)), K.RP2), (zero, CV.e(1, 3), K.RP2), (zero, CV.e(1, 2), K.SPHERE2), (zero, e2, K.SPHERE2)):
        keys += [FKey(kind, alpha, beta, r_l, crosses) for r_l in range(3) for crosses in range(2)]
    misses = 0
    for key in keys:
        kinds = set()
        for engine in (builtin_f_engine(), basis_f_engine()):
            got = [outcome(engine.value, key, seed) for seed in (None, *range(10))]
            kinds |= {(one[0], re.sub(r"^F\[.*\) ", "", one[1])) if isinstance(one, tuple) else one for one in got}
            misses += sum(isinstance(one, tuple) for one in got)
        assert len(kinds) == 1, (key, kinds)
    assert len(keys) > 250 and misses > 1000


def test_derive_prints_the_pinned_chains(monkeypatch):
    # the chain text, or the error's type and text, of every root key chi looks
    # up for d <= 12 and every packaged row, on both engines and under four orders
    keys = chi_root_keys(monkeypatch, 12)
    keys += [FKey(K(row["kind"]), CV(tuple(row["alpha"])), CV(tuple(row["beta"])), row["r_l"], row["crosses"]) for row in packaged_rows()]
    lines = []
    for engine in (builtin_f_engine(), basis_f_engine()):
        for key in keys:
            for seed in (None, 0, 1, 2):
                try:
                    lines.append(str(engine.derive(key, seed)))
                except WelschingerError as exc:
                    lines.append(repr((type(exc).__name__, str(exc))))
    assert len(lines) == 2104 and sum(line.startswith("(") for line in lines) == 1536
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == "f0b7f44f27dd1cdefd56dc341903aecace2df4513f5961371ef568689e826532"


@pytest.mark.parametrize(
    "beta,pairs,message",
    [
        (CV.e(1, 600), 500, "F[rp2]_(799,500)(0, 600e1) needs a chain of more than 500 reductions"),
        (CV.e(1, 1200), 1100, "F[rp2]_(1399,1100)(0, 1200e1) needs a chain of more than 500 reductions"),
        (CV.e(1, 300), 250, f"F[rp2]_(1+{'x' * 199},0)(250e1, 50e1) is outside the derivable closure"),
    ],
)
def test_value_bounds_the_chain_as_derive_does(beta, pairs, message):
    # the two keys too deep to resolve, and one that fails 449 reductions down;
    # another order misses for the same reason, though the third meets
    # another leaf first
    key, engine = FKey(K.RP2, zero, beta, pairs), builtin_f_engine()
    assert outcome(engine.value, key, None) == (UnresolvableFKey, message)
    kind, text = outcome(engine.value, key, 3)
    assert kind is UnresolvableFKey and text.endswith(message.rsplit(") ", 1)[1])


def test_value_raises_negative_dimension_before_walking(monkeypatch):
    from welschinger import cotangent

    def no_walk(*args):
        raise AssertionError("walked a key with no real-point count")

    monkeypatch.setattr(cotangent, "_reduction", no_walk)
    engine = builtin_f_engine()
    # the last key has 2 real points before its 5 crosses and -8 after them
    for key in (FKey(K.RP2, zero, zero), FKey(K.SPHERE2, e1, zero, r_l=1), FKey(K.RP2, zero, e1, crosses=5)):
        with pytest.raises(NegativeDimension) as by_value:
            engine.value(key)
        with pytest.raises(NegativeDimension) as by_derive:
            engine.derive(key)
        assert str(by_value.value) == str(by_derive.value)
    # the key's own r raises, naming its fields (its str would read r)
    with pytest.raises(NegativeDimension, match=r"^no non-negative real-point count for rp2, alpha=0, beta=e1, r_L=0, crosses=5$"):
        FKey(K.RP2, zero, e1, crosses=5).r
    with pytest.raises(ValueError, match=r"^conjugate pair and cross counts must be >= 0$"):
        FKey(K.RP2, zero, e1, crosses=-1).r


def test_derive_builds_keys_only_when_the_chain_is_read(monkeypatch):
    # the walk records count tuples: deriving every packaged row from the
    # basis builds no FKey until str(chain) reads the keys, and then one per
    # distinct node; chi, which derives its F misses, gives every outcome of
    # the frontier d <= 8 domain as pinned (one repr line per (geometry, d, r))
    basis = basis_f_engine()
    keys = [FKey(K(row["kind"]), CV(tuple(row["alpha"])), CV(tuple(row["beta"])), row["r_l"], row["crosses"]) for row in packaged_rows()]
    built, nodes = [], set()
    init = FKey.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    def visit(node):
        nodes.add(id(node))
        for _, child in node.terms:
            visit(child)

    with monkeypatch.context() as patch:
        patch.setattr(FKey, "__init__", counted)
        chains = [basis.derive(key) for key in keys]
        assert built == []
        texts = [str(chain) for chain in chains]
    for chain in chains:
        visit(chain)
    assert len(built) == len(nodes) > len(keys) and all(texts)
    lines = []
    for geometry in GeometryKind:
        for d in range(1, 9):
            for r in admissible_real_counts(geometry, d):
                try:
                    result = chi(geometry, d, r)
                except WelschingerError as exc:
                    lines.append(repr((geometry, d, r, type(exc).__name__, str(exc))))
                else:
                    lines.append(repr((geometry, d, r, result.value, result.ledger)))
    assert len(lines) == 144
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == "f28e72ce906aecb00ac04b9997b0a74532648b3b5a35cad978293b8ec8c9654c"
