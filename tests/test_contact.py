"""Foundation formulas: contact vectors, smooth genus and the cotangent dimension
equation; every exported name resolves."""

import importlib
import pkgutil

import pytest
from hypothesis import example, given, strategies as st

import welschinger
from welschinger import (
    ContactVector,
    GeometryKind,
    LagrangianKind,
    NegativeDimension,
    builtin_f_engine,
    builtin_relative_table,
    f_point_count,
    genus_smooth,
)
from welschinger.contact import _moved

CV = ContactVector
K = LagrangianKind
G = GeometryKind


# -- contact vectors --------------------------------------------------------


def test_contact_vector_canonical_trim():
    assert CV((1, 0, 0)) == CV((1,))
    assert hash(CV((0, 2, 0))) == hash(CV((0, 2)))
    assert CV.zero().counts == ()


_counts = st.lists(st.integers(min_value=0, max_value=5), max_size=6)


@given(_counts, _counts)
def test_contact_vector_sum_is_canonical(a, b):
    # parse sums the counts of each order over its terms: the vector of the
    # terms of a and of b is the checked vector of the entrywise sum, trailing
    # zeros trimmed
    n = max(len(a), len(b))
    padded = [x + y for x, y in zip(a + [0] * (n - len(a)), b + [0] * (n - len(b)))]
    terms = [f"{c}e{i}" for counts in (a, b) for i, c in enumerate(counts, start=1)]
    total = CV.parse("+".join(terms))
    assert total == CV(tuple(padded)) and total.counts == CV(tuple(padded)).counts
    assert hash(total) == hash(CV(tuple(padded))) and (not total.counts or total.counts[-1] > 0)
    assert all(type(x) is int for x in total.counts)


@given(_counts, st.integers(min_value=1, max_value=8))
@example([0, 0, 1], 3)  # the last count falls to 0 and the zeros below it go too
def test_moving_one_contact_is_the_vector_arithmetic(counts, order):
    # contact._moved works on canonical count tuples: its result is the
    # checked vector of the counts with one contact of ``order`` more or
    # less, with no trailing zero left
    v = CV(tuple(counts))
    padded = list(v.counts) + [0] * order
    padded[order - 1] += 1
    added = _moved(v.counts, order, 1)
    assert added == CV(tuple(padded)).counts and added[-1] > 0
    if padded[order - 1] > 1:
        padded[order - 1] -= 2
        removed = _moved(v.counts, order, -1)
        assert removed == CV(tuple(padded)).counts and (not removed or removed[-1] > 0)


def test_contact_vector_parse_and_str():
    v = CV.parse("e1+e2")
    assert v == CV((1, 1)) and v.size == 2 and v.weight == 3
    assert CV.parse("0") == CV.zero()
    assert CV.parse("2e1+e3") == CV((2, 0, 1))
    assert str(CV.parse("e1+e2")) == "e1+e2"
    assert str(CV.zero()) == "0"
    # the longest sum a command line holds: one vector, 18,000 contacts of the top order
    assert CV.parse("+".join(["e10000"] * 18000)) == CV((0,) * 9999 + (18000,))


@pytest.mark.parametrize(
    "text,message",
    [
        ("e0", "contact order must be >= 1"),
        ("e10001", "contact order 10001 is above the bound 10,000"),
        ("x", "cannot parse contact term 'x'"),
        ("e1+", "cannot parse contact term ''"),
        ("e1+e0+e10001+x", "contact order must be >= 1"),
        ("e1+e10001+e0+x", "contact order 10001 is above the bound 10,000"),
        ("e1+x+e0+e10001", "cannot parse contact term 'x'"),
    ],
)
def test_contact_vector_parse_names_the_first_failing_term(text, message):
    with pytest.raises(ValueError) as exc:
        CV.parse(text)
    assert str(exc.value) == message


def test_a_vector_is_not_read_as_counts():
    # a vector is no sequence of counts: building a vector from one, or
    # passing one where count tuples are due, raises rather than reading it
    # as the zero vector
    with pytest.raises(TypeError):
        CV(CV.e(2))
    with pytest.raises(TypeError):
        list(CV.e(2))
    with pytest.raises(TypeError):
        builtin_f_engine().plain_value(K.SPHERE2, CV.zero(), CV.e(2))
    with pytest.raises(TypeError):
        builtin_relative_table().count(4, 1, 2, CV.zero(), CV.e(2))


def test_a_str_or_a_non_int_count_is_refused():
    # read through int(), "21" was 2e1+e2 and (1.7, 2.2) was e1+2e2
    for counts in ("21", "", "e1", (1.7, 2.2), (1, 2.0), (True,), (0, False), ("1",), [None]):
        with pytest.raises(TypeError):
            CV(counts)
    # tuples, lists and other iterables of ints stay counts
    assert CV((2, 1)) == CV([2, 1]) == CV(iter((2, 1, 0))) == CV.parse("2e1+e2")
    assert CV(range(3)).counts == (0, 1, 2) and CV.e(3, 2).counts == (0, 0, 2) and CV.zero().counts == ()
    with pytest.raises(ValueError, match="non-negative"):
        CV((1, -1))


@given(st.lists(st.integers(min_value=0, max_value=5), max_size=6))
def test_contact_vector_weight_dominates_size(counts):
    v = CV(tuple(counts))
    assert v.weight == sum(i * c for i, c in enumerate(v.counts, start=1))
    assert v.weight >= v.size >= 0


# -- genus / degree ---------------------------------------------------------


def test_genus_smooth_examples():
    assert genus_smooth(G.PROJECTIVE_PLANE, 5) == 6
    assert genus_smooth(G.PROJECTIVE_PLANE, 1) == 0
    assert genus_smooth(G.ELLIPSOID_QUADRIC2, 4) == 9


@given(st.integers(min_value=1, max_value=60))
def test_genus_smooth_plane_closed_form(delta):
    assert genus_smooth(G.PROJECTIVE_PLANE, delta) == (delta - 1) * (delta - 2) // 2


def test_genus_smooth_rejects_threefold():
    with pytest.raises(ValueError):
        genus_smooth(G.ELLIPSOID_QUADRIC3, 2)


# -- the dimension equation --------------------------------------------------


def test_f_point_count_examples():
    assert f_point_count(K.SPHERE2, CV.e(2), CV.zero()) == 3
    assert f_point_count(K.RP2, CV.zero(), CV((1, 1))) == 6
    assert f_point_count(K.SPHERE3, CV.e(1), CV.zero()) == 1


def test_f_point_count_lemma_values():
    # every real-point count appearing in the curated cotangent tables
    assert f_point_count(K.SPHERE2, CV.e(1), CV.zero()) == 1
    assert f_point_count(K.SPHERE2, CV.zero(), CV.e(1)) == 3
    assert f_point_count(K.SPHERE2, CV.zero(), CV.e(2)) == 5
    assert f_point_count(K.SPHERE2, CV.e(1), CV.e(1)) == 5
    assert f_point_count(K.SPHERE2, CV.zero(), CV.e(1, 2)) == 7
    assert f_point_count(K.RP2, CV.e(1), CV.zero()) == 0
    assert f_point_count(K.RP2, CV.zero(), CV.e(1)) == 2
    assert f_point_count(K.RP2, CV.zero(), CV.e(2)) == 3
    assert f_point_count(K.RP2, CV.e(3), CV.zero()) == 2
    assert f_point_count(K.RP2, CV.zero(), CV.e(3)) == 4
    assert f_point_count(K.RP2, CV.zero(), CV.e(1, 3)) == 8


def test_f_point_count_negative_dimension():
    with pytest.raises(NegativeDimension):
        f_point_count(K.SPHERE2, CV.e(1), CV.zero(), r_l=3)


_profiles = st.builds(
    CV,
    st.lists(st.integers(min_value=0, max_value=3), min_size=0, max_size=3).map(tuple),
)


@given(
    st.sampled_from([K.SPHERE2, K.RP2, K.SPHERE3]),
    _profiles,
    _profiles,
    st.integers(min_value=0, max_value=4),
)
def test_f_point_count_trades_pairs_for_real_points(kind, alpha, beta, r_l):
    # r + 2 r_L is independent of r_L whenever both sides are defined
    try:
        base = f_point_count(kind, alpha, beta, 0)
    except NegativeDimension:
        return
    try:
        shifted = f_point_count(kind, alpha, beta, r_l)
    except NegativeDimension:
        assert base - 2 * r_l < 0
        return
    assert shifted + 2 * r_l == base


# -- exports ------------------------------------------------------------------


def test_every_exported_name_resolves():
    modules = [welschinger] + [
        importlib.import_module(info.name) for info in pkgutil.walk_packages(welschinger.__path__, "welschinger.")
    ]
    for module in modules:
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert missing == [], module.__name__
