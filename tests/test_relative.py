"""Relative invariants on the ruled surfaces and the ruled 3-fold: the
section-class formula, the curated a >= 2 row and the 3-fold counts."""

import pytest
from hypothesis import given, strategies as st

from welschinger import (
    ContactVector,
    RelativeKey,
    RuledSurfaceClass,
    UnknownInvariant,
    builtin_relative_table,
    n_three,
    quadric_count,
    relative,
)
from welschinger.relative import three_fold_count
from welschinger.verification import wdvv_quadric_count

CV = ContactVector
e1, e2, e3 = CV.e(1), CV.e(2), CV.e(3)
zero = CV.zero()


def _key(n, a, b, alpha, beta):
    return RelativeKey(RuledSurfaceClass(n, a, b), alpha, beta)


def point_count(key: RelativeKey) -> int:
    """Point conditions making the relative count rigid, the reference the
    tree's pair counts are checked against.

    Rational curves in |a e + b f| move in a ((n+2)a + 2b - 1)-dimensional
    family; a prescribed order-i contact costs i conditions and a free one
    costs i - 1.
    """
    s = key.surface
    return (s.n + 2) * s.a + 2 * s.b - 1 - key.alpha.weight - (key.beta.weight - key.beta.size)


def test_key_invariant_contact_weight():
    with pytest.raises(ValueError):
        _key(4, 1, 2, e1, zero)  # weight 1 != b = 2


@pytest.mark.parametrize(
    "n,a,b,beta,message",
    [
        (3, 2, 1, e1, "only the degree-2 and degree-4 ruled surfaces occur"),
        (2, -1, 1, e1, "class coefficients must be non-negative and not both zero"),
        (2, 0, 0, zero, "class coefficients must be non-negative and not both zero"),
        (2, 2, 1, e2, "contact weight 2 differs from b=1"),
    ],
)
def test_a_key_that_means_nothing_is_refused(n, a, b, beta, message):
    with pytest.raises(ValueError) as exc:
        _key(n, a, b, zero, beta)
    assert str(exc.value) == message


def test_n_sigma_examples():
    table = builtin_relative_table()
    assert table.n_sigma(_key(4, 1, 1, zero, e1)) == 1
    assert table.n_sigma(_key(2, 2, 1, zero, e1)) == 93
    assert table.n_sigma(_key(4, 1, 3, zero, CV((1, 1)))) == 4
    assert table.n_sigma(_key(4, 0, 1, zero, e1)) == 1  # fibre through a point


def test_n_sigma_full_curated_table():
    # the 21 section-class keys that the goldens read, once curated rows and
    # now computed, and the one curated row
    table = builtin_relative_table()
    expected = {
        (4, 1, 1): {(zero, e1): 1, (e1, zero): 1},
        (4, 1, 2): {(e2, zero): 1, (zero, e2): 2, (zero, CV.e(1, 2)): 1, (e1, e1): 1},
        (4, 1, 3): {
            (CV((1, 1)), zero): 1,
            (e1, e2): 2,
            (e2, e1): 1,
            (zero, CV((1, 1))): 4,
            (e3, zero): 1,
            (zero, e3): 3,
        },
        (4, 1, 4): {(CV.e(2, 2), zero): 1, (zero, CV.e(2, 2)): 4},
        (2, 1, 1): {(zero, e1): 1, (e1, zero): 1},
        (2, 1, 2): {(e2, zero): 1, (zero, e2): 2, (zero, CV.e(1, 2)): 1, (e1, e1): 1},
        (2, 1, 3): {(zero, CV.e(1, 3)): 1},
        (2, 2, 1): {(zero, e1): 93},
    }
    for (n, a, b), profiles in expected.items():
        for (alpha, beta), value in profiles.items():
            assert table.n_sigma(_key(n, a, b, alpha, beta)) == value


def test_every_packaged_row_is_found_under_its_own_key():
    assert relative._CURATED == {(2, 2, 1, (), (1,)): 93}
    table = builtin_relative_table()
    for (n, a, b, alpha, beta), value in relative._CURATED.items():
        assert table.n_sigma(_key(n, a, b, CV(alpha), CV(beta))) == value


def test_n_sigma_error_on_unknown():
    table = builtin_relative_table()
    with pytest.raises(UnknownInvariant):
        table.n_sigma(_key(4, 2, 1, zero, e1))
    with pytest.raises(UnknownInvariant):
        table.n_sigma(_key(4, 0, 2, zero, e2))  # multiple fibres


@given(
    st.sampled_from([2, 4]),
    st.integers(min_value=2, max_value=3),
    st.integers(min_value=5, max_value=9),
    st.data(),
)
def test_n_sigma_never_silently_zero(n, a, b, data):
    # a >= 2: a section class (a = 1) is computed, so it is never unknown
    prescribed = data.draw(st.integers(min_value=0, max_value=b))
    key = _key(n, a, b, CV.e(1, prescribed), CV.e(1, b - prescribed))
    table = builtin_relative_table()
    with pytest.raises(UnknownInvariant):
        table.n_sigma(key)


def test_point_count_examples():
    assert point_count(_key(4, 1, 1, zero, e1)) == 7
    assert point_count(_key(2, 0, 1, zero, e1)) == 1
    # consistency with the tree bookkeeping: a degree-1 class with a
    # prescribed double contact is rigid on 7 conjugate-pair conditions,
    # matching the pair count carried by the corresponding tree vertex
    assert point_count(_key(4, 1, 2, e2, zero)) == 7


def test_point_count_matches_tree_pair_counts():
    from welschinger import TreeFamily, enumerate_decorated_trees

    degree_of = {TreeFamily.PROJECTIVE: 4, TreeFamily.TWO_SPHERICAL: 2}
    cases = {TreeFamily.PROJECTIVE: [(6, 1), (6, 3), (7, 2), (8, 1)], TreeFamily.TWO_SPHERICAL: [(4, 3), (5, 1)]}
    for family, pairs in cases.items():
        for d, r in pairs:
            for twc in enumerate_decorated_trees(family, d, r):
                tree, shape = twc.tree, twc.tree.shape
                for v in shape.odd_vertices:
                    free = [k for _, k in shape.adjacency[v]]  # the vertex's edges less its prescribed one
                    if tree.is_plus(v):
                        alpha = CV.e(shape.root_edges[v])
                        free.remove(shape.root_edges[v])
                    else:
                        alpha = zero
                    beta = CV(tuple(free.count(i) for i in range(1, max(free, default=0) + 1)))
                    key = _key(degree_of[family], shape.genus[v], shape.k_s[v], alpha, beta)
                    assert point_count(key) == tree.f_size(v)


def test_table_keys_have_consistent_dimension():
    # each curated key passes the class and contact-weight checks of RelativeKey
    table = builtin_relative_table()
    for (n, a, b, alpha, beta), value in relative._CURATED.items():
        key = _key(n, a, b, CV(alpha), CV(beta))
        assert table.n_sigma(key) == value
        assert point_count(key) >= 0
        assert key.alpha.weight + key.beta.weight == key.surface.b


@given(
    st.sampled_from([2, 4]),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=6),
    st.data(),
)
def test_point_count_never_negative_on_valid_keys(n, a, b, data):
    # with the contact-weight invariant the count collapses to
    # (n+2)a + b - 1 + |beta|, which is non-negative for every valid key,
    # so n_sigma needs no guard against a negative count
    if (a, b) == (0, 0):
        return
    orders = data.draw(
        st.lists(st.integers(min_value=1, max_value=max(b, 1)), max_size=b)
    )
    if sum(orders) > b:
        return
    alpha = CV(tuple(orders.count(k) for k in range(1, max(orders, default=0) + 1)))
    remainder = b - alpha.weight
    beta = CV.e(1, remainder) if remainder else zero
    key = _key(n, a, b, alpha, beta)
    assert point_count(key) == (n + 2) * a + b - 1 + beta.size >= 0


def test_quadric_count_table():
    assert quadric_count(2, 2) == 12
    assert quadric_count(3, 1) == 1
    assert quadric_count(0, 4) == 0
    assert quadric_count(1, 1) == 1
    with pytest.raises(UnknownInvariant):
        quadric_count(2, 1)


def test_quadric_count_symmetry():
    for a, b in [(1, 0), (1, 1), (3, 1), (2, 2)]:
        assert quadric_count(a, b) == quadric_count(b, a)


def test_n_three_examples():
    assert n_three(2, 2, 1, zero, e1) == 12
    assert n_three(3, 1, 1, zero, e1) == 1
    assert n_three(4, 0, 1, zero, e1) == 0
    assert n_three(0, 0, 1, zero, e1) == 1  # pure fibre


def test_n_three_preconditions():
    with pytest.raises(UnknownInvariant):
        n_three(2, 2, 2, zero, e1)
    with pytest.raises(UnknownInvariant):
        n_three(2, 2, 1, zero, e2)


def _outcome(count):
    try:
        return count()
    except UnknownInvariant as exc:
        return UnknownInvariant, str(exc)


# the bidegrees with both coefficients positive that quadric_count's table holds
_CURATED_BIDEGREES = {(1, 1), (3, 1), (1, 3), (2, 2)}


def _three_fold_reference(g, alpha, beta):
    """The rigid count of a 3-fold vertex with one simple contact: 1 for the
    pure fibre, else the section count N4^{e+f}(alpha, beta) times the WDVV
    quadric counts, or the miss of the first bidegree outside the curated
    quadric counts."""
    if not g:
        return 1
    section = _key(4, 1, 1, alpha, beta)
    for a in range(g + 1):
        if a and g - a and (a, g - a) not in _CURATED_BIDEGREES:
            return UnknownInvariant, f"no curated count for quadric bidegree ({a}, {g - a})"
    return builtin_relative_table().n_sigma(section) * sum(wdvv_quadric_count(a, g - a) for a in range(g + 1))


def test_three_fold_count():
    contacts = [
        (1, zero, e1, None),
        (1, e1, zero, None),
        (2, zero, e1, "no curated 3-fold count for fibre coefficient 2"),
        (1, zero, e2, "3-fold counts need exactly one simple contact"),
    ]
    for g in range(9):
        for c, alpha, beta, contact_miss in contacts:
            # pairs needed: 2g - 1 - [prescribed], 1 - [prescribed] at g = 0
            need = (2 * g - 1 if g else 1) - (1 if alpha else 0)
            for pairs in range(max(need - 1, 0), need + 2):
                if pairs < need:
                    message = f"N3 of (0, {g}) + {c}f moves with {pairs} < {need} point pairs: count is not defined"
                    want = UnknownInvariant, message
                elif pairs > need:
                    want = 0
                elif contact_miss is not None:
                    want = UnknownInvariant, contact_miss
                else:
                    want = _three_fold_reference(g, alpha, beta)
                got = _outcome(lambda: three_fold_count(g, c, alpha, beta, pairs))
                assert got == want, (g, c, alpha, beta, pairs)
    assert three_fold_count(4, 1, zero, e1, 7) == 12 + 1 + 1
    assert _outcome(lambda: three_fold_count(5, 1, e1, zero, 8)) == (UnknownInvariant, "no curated count for quadric bidegree (1, 4)")
    # the minus leaves of the 3-quadric trees: g = 2 holds 4 > 3 pairs, g = 6 holds 10 < 11
    assert three_fold_count(2, 1, zero, e1, 4) == 0
    with pytest.raises(UnknownInvariant) as excinfo:
        three_fold_count(6, 1, zero, e1, 10)
    assert str(excinfo.value) == "N3 of (0, 6) + 1f moves with 10 < 11 point pairs: count is not defined"
