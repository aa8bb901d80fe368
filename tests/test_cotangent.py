"""Cotangent invariants: curated bases, reduction rules, derivation engine."""

import pytest

from welschinger import (
    ContactVector,
    EmptyBeta,
    FInvariantEngine,
    FKey,
    InsufficientRealPoints,
    LagrangianKind,
    UnresolvableFKey,
    WelschingerError,
    basis_f_engine,
    builtin_f_engine,
    f_invariant,
    reduce_pair_to_real,
    reduce_real_pair_to_cross,
)

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
    (e1 + e2, zero): 2,
    (e1, e2): 8,
    (e2, e1): 4,
    (zero, e1 + e2): 24,
    (CV.e(1, 3), zero): 2,
    (CV.e(1, 2), e1): 4,
    (e1, CV.e(1, 2)): 6,
    (zero, CV.e(1, 3)): 8,
}


def test_sphere2_table():
    for (alpha, beta), value in SPHERE2_VALUES.items():
        assert f_invariant(K.SPHERE2, alpha, beta) == value


def test_rp2_table():
    for (alpha, beta), value in RP2_VALUES.items():
        assert f_invariant(K.RP2, alpha, beta) == value


def test_sphere3_value():
    assert f_invariant(K.SPHERE3, e1, zero) == -1


def test_examples_with_specified_real_points():
    assert f_invariant(K.SPHERE2, zero, CV.e(1, 2)) == 6
    assert FKey(K.SPHERE2, zero, CV.e(1, 2)).r == 7
    assert f_invariant(K.RP2, zero, e1 + e2) == 24
    assert FKey(K.RP2, zero, e1 + e2).r == 6
    assert FKey(K.SPHERE3, e1, zero).r == 1


# -- reduction rules ----------------------------------------------------------


def test_pair_to_real_coefficients():
    combo = reduce_pair_to_real(FKey(K.SPHERE2, zero, e2, r_l=1))
    assert [(c, k.alpha, k.beta, k.r_l) for c, k in combo] == [(2, e2, zero, 0)]
    engine = builtin_f_engine()
    assert engine.value(FKey(K.SPHERE2, zero, e2, r_l=1)) == 4

    combo = reduce_pair_to_real(FKey(K.RP2, zero, e1 + e2, r_l=1))
    assert sorted((c, str(k.alpha), str(k.beta)) for c, k in combo) == [
        (1, "e1", "e2"),
        (2, "e2", "e1"),
    ]
    assert engine.value(FKey(K.RP2, zero, e1 + e2, r_l=1)) == 8 + 2 * 4

    # the coefficient is the order k alone, without a beta_k factor
    combo = reduce_pair_to_real(FKey(K.SPHERE2, zero, CV.e(1, 2), r_l=1))
    assert [(c, str(k.alpha), str(k.beta)) for c, k in combo] == [(1, "e1", "e1")]
    assert engine.value(FKey(K.SPHERE2, zero, CV.e(1, 2), r_l=1)) == 4


def test_pair_to_real_requires_free_contact():
    with pytest.raises(EmptyBeta):
        reduce_pair_to_real(FKey(K.SPHERE2, e2, zero, r_l=1))


def test_real_pair_to_cross_chains():
    engine = basis_f_engine()
    # chain: value = 2 * (cross term) + (pair term)
    combo = reduce_real_pair_to_cross(FKey(K.SPHERE2, zero, CV.e(1, 2)))
    assert [(c, k.crosses, k.r_l) for c, k in combo] == [(2, 1, 0), (1, 0, 1)]
    assert engine.value(combo[0][1]) == 1
    assert engine.value(combo[1][1]) == 4
    assert engine.value(FKey(K.SPHERE2, zero, CV.e(1, 2))) == 2 + 4

    assert engine.value(FKey(K.RP2, e3, zero)) == 2  # 2*1 + 0
    assert engine.value(FKey(K.SPHERE2, CV.e(1, 2), zero)) == 2  # 2*1 + 0


def test_real_pair_to_cross_preconditions():
    with pytest.raises(InsufficientRealPoints):
        reduce_real_pair_to_cross(FKey(K.SPHERE2, e1, zero))  # r = 1
    with pytest.raises(ValueError):
        reduce_real_pair_to_cross(FKey(K.SPHERE2, zero, e2, r_l=1))


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
        FKey(K.RP2, zero, e1 + e2),
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
        engine.value(FKey(K.RP3, zero, e1))
    with pytest.raises(UnresolvableFKey):
        engine.value(FKey(K.TORUS2, zero, CV.e(1, 2)))
    with pytest.raises(UnresolvableFKey):
        f_invariant(K.RP2, CV.e(4), zero)


def test_reductions_preserve_dimension_bookkeeping():
    key = FKey(K.RP2, zero, e1 + e2, r_l=1)
    for _, child in reduce_pair_to_real(key):
        assert child.r == key.r
    key = FKey(K.SPHERE2, zero, e2)
    for _, child in reduce_real_pair_to_cross(key):
        assert child.r == key.r - 2


@pytest.mark.parametrize(
    "row,message",
    [
        ({"kind": "rp2", "alpha": [], "beta": [1], "value": 2}, "row 1 lists a key again with value 2, not 1"),
        ({"kind": "rp2", "alpha": [], "beta": [True], "value": 1}, "row 1: field 'beta' must be a list of ints"),
        ({"kind": "rp2", "alpha": [], "beta": [1], "value": "1"}, "row 1: field 'value' must be int"),
        ({"kind": "rp2", "alpha": [], "beta": [1], "r_l": 1.0, "value": 1}, "row 1: field 'r_l' must be int"),
        ({"kind": "rp2", "alpha": [-1], "beta": [1], "value": 1}, "row 1: contact multiplicities must be non-negative"),
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
