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


def test_contact_vector_arithmetic():
    v = CV.e(1) + CV.e(2)
    assert v.size == 2 and v.weight == 3
    assert (v - CV.e(2)) == CV.e(1)
    with pytest.raises(ValueError):
        v - CV.e(3)


_counts = st.lists(st.integers(min_value=0, max_value=5), max_size=6)


@given(_counts, _counts)
def test_contact_vector_sum_is_canonical(a, b):
    # __add__ skips the constructor's checks: its result must equal the
    # checked vector of the entrywise sum, trailing zeros trimmed
    n = max(len(a), len(b))
    padded = [x + y for x, y in zip(a + [0] * (n - len(a)), b + [0] * (n - len(b)))]
    total = CV(tuple(a)) + CV(tuple(b))
    assert total == CV(tuple(padded)) and total.counts == CV(tuple(padded)).counts
    assert hash(total) == hash(CV(tuple(padded))) and (not total.counts or total.counts[-1] > 0)
    assert all(type(x) is int for x in total.counts)
    assert total - CV(tuple(b)) == CV(tuple(a))


@given(_counts, _counts)
@example([1, 2], [0, 2])  # the top orders cancel
@example([2, 3], [2, 3])  # every order cancels
@example([1], [0, 1])  # the subtrahend is longer
@example([0, 1], [1])  # negative at a lower order
def test_contact_vector_difference_and_weight_follow_the_orders(a, b):
    u, v = CV(tuple(a)), CV(tuple(b))
    assert u.weight == sum(i * u[i] for i in range(1, len(u.counts) + 1))
    n = max(len(u.counts), len(v.counts))
    per_order = tuple(u[i] - v[i] for i in range(1, n + 1))
    if min(per_order, default=0) < 0:
        with pytest.raises(ValueError, match="^contact vector subtraction went negative$"):
            u - v
        return
    diff = u - v
    assert diff == CV(per_order) and diff.counts == CV(per_order).counts
    assert not diff.counts or diff.counts[-1] > 0


@given(_counts, st.integers(min_value=1, max_value=8))
@example([0, 0, 1], 3)  # the last count falls to 0 and the zeros below it go too
def test_moving_one_contact_is_the_vector_arithmetic(counts, order):
    # contact._moved works on canonical count tuples: its result is the
    # counts of the vector sum or difference, with no trailing zero left
    v = CV(tuple(counts))
    added = _moved(v.counts, order, 1)
    assert added == (v + CV.e(order)).counts and added[-1] > 0
    if v[order]:
        removed = _moved(v.counts, order, -1)
        assert removed == (v - CV.e(order)).counts and (not removed or removed[-1] > 0)


def test_contact_vector_parse_and_str():
    assert CV.parse("0") == CV.zero()
    assert CV.parse("2e1+e3") == CV.e(1, 2) + CV.e(3)
    assert str(CV.parse("e1+e2")) == "e1+e2"
    assert str(CV.zero()) == "0"


@given(st.lists(st.integers(min_value=0, max_value=5), max_size=6))
def test_contact_vector_weight_dominates_size(counts):
    v = CV(tuple(counts))
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
    assert f_point_count(K.RP2, CV.zero(), CV.e(1) + CV.e(2)) == 6
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
