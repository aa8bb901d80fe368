"""Decorated tree enumeration, canonical forms and multiplicity factors."""

import copy
import functools
import itertools
import json
import math
import pickle
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from welschinger import (
    ContactVector,
    DecoratedTree,
    EnumerationTooLarge,
    InadmissiblePair,
    TreeFamily,
    admissible_real_counts,
    assignment_count,
    canonical_form,
    enumerate_decorated_trees,
    enumerate_trees,
    f_point_count,
    m1_minus,
    m1_plus,
    m2_reconnection,
    multiplicity,
)
from welschinger import trees as trees_module
from welschinger.contact import _cached
from welschinger.trees import (
    MINUS,
    PLUS,
    Shape,
    _build,
    _candidates,
    _code,
    _codes,
    _form,
    automorphisms,
    pair_condition_count,
    tree_to_json_dict,
    trees_to_json,
)

F = TreeFamily


def shape_code(shape):
    """AHU code of a whole shape, degrees as the only labels."""
    return _codes(shape, {}, {})[shape.root]


def shape_form(tree):
    """Encoding of a tree's shape with its degree decoration only."""
    return _form(tree.shape, tree.r, shape_code(tree.shape))


def profile(shape, v):
    """The contact profile of vertex ``v``: its edge multiplicities as a vector."""
    orders = [k for _, k in shape.adjacency[v]]
    return ContactVector(tuple(orders.count(i) for i in range(1, max(orders, default=0) + 1)))


EXPECTED_CLASS_COUNTS = {
    F.PROJECTIVE: {(4, 1): 0, (5, 0): 1, (5, 2): 1, (6, 1): 2, (6, 3): 2, (7, 0): 2, (7, 2): 5, (8, 1): 4},
    F.TWO_SPHERICAL: {(3, 1): 1, (3, 3): 1, (4, 1): 1, (4, 3): 3, (5, 1): 2},
    F.THREE_SPHERICAL: {(2, 1): 1, (10, 1): 1},
}


@pytest.mark.parametrize(
    "family,d,r,count",
    [(fam, d, r, c) for fam, table in EXPECTED_CLASS_COUNTS.items() for (d, r), c in table.items()],
)
def test_class_counts(family, d, r, count):
    assert len(enumerate_trees(family, d, r)) == count


def test_empty_set_for_degree_four():
    assert enumerate_trees(F.PROJECTIVE, 4, 1) == []


def test_invalid_degree_real_pair():
    with pytest.raises(InadmissiblePair):
        enumerate_trees(F.PROJECTIVE, 5, 1)  # parity of 3d-1 forces r even
    with pytest.raises(InadmissiblePair):
        enumerate_trees(F.THREE_SPHERICAL, 3, 1)  # 3d odd


# (c1, n): the Chern degree of the degree-1 class and the dimension of the Lagrangian
POINT_EQUATION = {F.PROJECTIVE: (3, 2), F.TWO_SPHERICAL: (4, 2), F.THREE_SPHERICAL: (3, 3)}


def brute_pair_count(family, d, r):
    """The r_X >= 0 with (n - 1)(r + 2 r_X) = c1 d + n - 3, by search; None
    when there is none or r < 0."""
    c1, n = POINT_EQUATION[family]
    return next((r_x for r_x in range(4 * d + 3) if r >= 0 and (n - 1) * (r + 2 * r_x) == c1 * d + n - 3), None)


def test_the_domain_of_chi_against_a_brute_force_search():
    for family in F:
        for d in range(1, 31):
            solved = []
            for r in range(-2, 4 * d + 3):
                r_x = brute_pair_count(family, d, r)
                if r_x is None:
                    with pytest.raises(InadmissiblePair):
                        pair_condition_count(family, d, r)
                else:
                    assert pair_condition_count(family, d, r) == r_x, (family, d, r)
                    solved.append(r)
            # the 3-quadric's invariant needs a real point
            expected = [r for r in solved if r or family is not F.THREE_SPHERICAL]
            assert list(admissible_real_counts(family.geometry, d)) == expected, (family, d)


def test_round_trip_validation():
    for family, table in EXPECTED_CLASS_COUNTS.items():
        for d, r in table:
            for twc in enumerate_decorated_trees(family, d, r):
                assert twc.tree.validate() == []


def test_tree_equality_compares_the_shape_by_identity():
    # a copy or a rebuild has its own Shape: unequal, yet the same isomorphism class
    tree = enumerate_decorated_trees(F.PROJECTIVE, 3, 2)[0].tree
    shape = tree.shape
    rebuilt = DecoratedTree.build(shape.family, shape.d, tree.r, shape.root, shape.edges, shape.genus, dict(tree.signs))
    for twin in (rebuilt, pickle.loads(pickle.dumps(tree)), copy.deepcopy(tree)):
        assert twin != tree and canonical_form(twin) == canonical_form(tree)
    assert DecoratedTree(shape, tree.r, tree.signs) == tree


def test_degree_six_variants_and_multiplicities():
    # two classes; the two-leaf class has multiplicity 2^6 with 8 assignments
    # and the double-edge class multiplicity 2^8 with a single assignment
    classes = enumerate_trees(F.PROJECTIVE, 6, 1)
    data = sorted(
        (multiplicity(v.tree), v.assignment_count) for cls in classes for v in cls.variants
    )
    assert data == [(64, 8), (256, 1)]


def test_degree_six_r3_partition_variants():
    # the same two shapes; the two-leaf shape now carries two sign partitions
    classes = enumerate_trees(F.PROJECTIVE, 6, 3)
    sizes = sorted(len(cls.variants) for cls in classes)
    assert sizes == [1, 2]
    contributions = sorted(
        v.assignment_count * multiplicity(v.tree) for cls in classes for v in cls.variants
    )
    # 7 * 2^6, 1 * 2^6, 1 * 2^8 (before the F and relative factors)
    assert contributions == [64, 256, 448]


def test_degree_eight_assignment_counts():
    counts = sorted(v.assignment_count for cls in enumerate_trees(F.PROJECTIVE, 8, 1) for v in cls.variants)
    assert counts == [1, 11, 11, 110]


def test_assignment_count_multinomial_oracle():
    # oracle: explicit enumeration of labeled assignments modulo the swap of
    # the two interchangeable degree-0 leaves (first class at d=7, r=2)
    classes = enumerate_trees(F.PROJECTIVE, 7, 2)
    tree = next(
        v.tree
        for cls in classes
        for v in cls.variants
        if len(v.tree.shape.root_edges) == 3
    )
    genus = tree.shape.genus
    twins = [v for v, g in genus.items() if g == 0]
    heavy = next(v for v, g in genus.items() if g == 1)
    pairs = frozenset(range(9))
    labelings = set()
    for a in itertools.combinations(sorted(pairs), 1):
        rest = pairs - set(a)
        for b in itertools.combinations(sorted(rest), 1):
            big = rest - set(b)
            # the two leaves carry identical decorations, so an assignment is
            # determined up to isomorphism by the unordered pair {a, b}
            labelings.add((frozenset({a, b}), tuple(sorted(big))))
    assert len(twins) == 2 and genus[heavy] == 1
    assert assignment_count(tree) == len(labelings) == 36


def burnside_assignment_count(tree, r_x, group):
    """Reference count: Burnside averaging over ``group``, the listed
    automorphisms that preserve degree and sign decorations (an automorphism
    fixes an assignment iff it fixes every vertex holding a non-empty
    subset)."""
    fmap = tree._f_map
    multinomial = math.factorial(r_x)
    for f in fmap.values():
        multinomial //= math.factorial(f)
    orbit = {tuple(sorted((pi[v], f) for v, f in fmap.items())) for pi in group}
    hits = sum(1 for pi in group for profile in orbit if all(pi[v] == v for v, f in profile if f > 0))
    assert (multinomial * hits) % len(group) == 0
    return multinomial * hits // len(group)


def _valid_keys(top_degrees):
    for family, top in top_degrees.items():
        for d in range(1, top + 1):
            for r in range(0, 4 * d + 1):
                try:
                    yield family, d, r, pair_condition_count(family, d, r)
                except InadmissiblePair:
                    continue


def test_assignment_count_matches_burnside():
    # |H| and |K|, read off one bottom-up walk, are the orders of the listed
    # group and of its subgroup fixing every vertex that holds pairs, for
    # every enumerated tree with d <= 10 (3-fold d <= 12).  Listing takes
    # time in the group's order, which reaches 10! at plane and
    # two-spherical d = 10 (90 s for those trees), so a tree is listed only
    # when the product of its sibling counts' factorials, a bound on the
    # order read off the bare shape, is at most 8!: every tree with d <= 8,
    # and all but 42 with d = 9 or 10
    listed, unlisted = 0, Counter()
    for family, d, r, r_x in _valid_keys({F.PROJECTIVE: 10, F.TWO_SPHERICAL: 10, F.THREE_SPHERICAL: 12}):
        for twc in enumerate_decorated_trees(family, d, r):
            tree = twc.tree
            if math.prod(math.factorial(len(children)) for *_, children in tree.shape.bottom_up) > math.factorial(8):
                unlisted[d] += 1
                continue
            group = automorphisms(tree)
            holding = [v for v, f in tree._f_map.items() if f > 0]
            fixing = [pi for pi in group if all(pi[v] == v for v in holding)]
            assert tree._aut_orders == (len(group), len(fixing)), (family, d, r)
            assert twc.assignment_count == burnside_assignment_count(tree, r_x, group), (family, d, r)
            listed += 1
    assert (listed, unlisted) == (2001, {9: 20, 10: 22})


@pytest.mark.parametrize("family,top", [(F.PROJECTIVE, 10), (F.TWO_SPHERICAL, 8), (F.THREE_SPHERICAL, 12)])
def test_each_candidate_shape_is_generated_once(family, top):
    for d in range(1, top + 1):
        shapes = [shape_code(_build(family, d, forest)[1]) for *_, forest in _candidates(family, d)[0]]
        assert len(shapes) == len(set(shapes)), (family, d)
    # and each decorated tree: no two that the decoration step yields are
    # isomorphic (enumeration sorts them but merges none)
    for _, d, r, _ in _valid_keys({family: top}):
        forms = [canonical_form(twc.tree) for twc in enumerate_decorated_trees(family, d, r)]
        assert len(forms) == len(set(forms)), (family, d, r)


STORE_DEGREES = {F.PROJECTIVE: 14, F.TWO_SPHERICAL: 11, F.THREE_SPHERICAL: 14}


@pytest.mark.parametrize("family", list(STORE_DEGREES))
def test_candidates_do_not_depend_on_the_subtree_store(monkeypatch, family):
    # the odd-subtree lists are shared by every degree of a family: a run
    # from an empty store and a run after every other degree, larger ones
    # first, give the same candidates in the same order
    top = STORE_DEGREES[family]
    cold = {}
    for d in range(1, top + 1):
        monkeypatch.setitem(trees_module._SUBTREES, family, {})
        _candidates.cache_clear()
        cold[d] = _candidates(family, d)[0]
    for d in range(1, top + 1):
        monkeypatch.setitem(trees_module._SUBTREES, family, {})
        for other in range(top, 0, -1):
            if other != d:
                _candidates(family, other)
        _candidates.cache_clear()
        assert _candidates(family, d)[0] == cold[d], (family, d)
    _candidates.cache_clear()


@pytest.mark.parametrize("warm", [(), (11,), (13,), (14, 5)], ids=["empty", "11", "13", "14-then-5"])
def test_the_enumeration_bound_is_exact_with_any_stored_subtrees(monkeypatch, warm):
    # plane d = 12 makes 51 subtrees and 57 forests; a run counts every
    # subtree list it reads, whether or not an earlier degree stored it
    monkeypatch.setitem(trees_module._SUBTREES, F.PROJECTIVE, {})
    _candidates.cache_clear()
    for d in warm:
        _candidates(F.PROJECTIVE, d)
    _candidates.cache_clear()
    monkeypatch.setattr(trees_module, "CANDIDATE_BOUND", 108)
    assert len(_candidates(F.PROJECTIVE, 12)[0]) == 57
    _candidates.cache_clear()
    monkeypatch.setattr(trees_module, "CANDIDATE_BOUND", 107)
    with pytest.raises(EnumerationTooLarge, match=r"^\(projective, d=12\) has more than 107 candidate subtrees and forests"):
        _candidates(F.PROJECTIVE, 12)
    _candidates.cache_clear()


def test_build_numbers_each_subtree_as_one_range():
    # _build walks depth-first: the vertices below each vertex, itself
    # included, are the ids from it up to the last of them, so a connector
    # comes just before its odd child and the root children's runs name
    # the top vertices of the forest's subtrees
    shapes = 0
    for family in F:
        for d in range(1, 13):
            for *_, forest in _candidates(family, d)[0]:
                runs, shape = _build(family, d, forest)
                size, last = {}, {}
                for v, _, children in shape.bottom_up:
                    size[v] = 1 + sum(size[w] for w in children)
                    last[v] = max([v] + [last[w] for w in children])
                    assert all(w > v for w in children) and last[v] == v + size[v] - 1, (family, d, v)
                assert [v for run in runs for v in run] == [w for w, _ in shape.adjacency[0]]
                assert [len(run) for run in runs] == [len(list(run)) for _, run in itertools.groupby(forest)]
                shapes += 1
    assert shapes == 1068


def _parent_arrays(n):
    """Every rooted tree on n vertices numbered breadth-first, as its parent
    array: p[v] < v for each vertex v >= 1, non-decreasing in v."""

    def extend(parents):
        if len(parents) == n - 1:
            yield parents
            return
        for p in range(parents[-1] if parents else 0, len(parents) + 1):
            yield from extend(parents + (p,))

    return extend(())


def _compositions(total, parts):
    """Every ordered way to write ``total`` as ``parts`` integers >= 1."""
    for cuts in itertools.combinations(range(1, total), parts - 1):
        yield tuple(b - a for a, b in zip((0, *cuts), (*cuts, total)))


def brute_force_forms(family, d):
    """{r: canonical forms} of every decorated tree of (family, d) that the
    checked constructors accept: each rooted tree, each composition of its
    edge multiplicities, each split of the degree equation's sum(g) over its
    odd vertices, each sign partition of the root's children and each r."""
    forms = {r: set() for r in family.real_point_counts(d)}
    for n in range(2, d // family.scale + 2):  # each edge costs scale at least
        for parents in _parent_arrays(n):
            depth = [0]
            for p in parents:
                depth.append(depth[p] + 1)
            odd = [v for v in range(n) if depth[v] % 2]
            root_children = [v for v, p in enumerate(parents, 1) if p == 0]
            for k_total in range(n - 1, d // family.scale + 1):
                g_total = family.genus_total(d, k_total)
                if g_total is None:
                    continue
                for ks in _compositions(k_total, n - 1):
                    edges = [(p, v, k) for v, (p, k) in enumerate(zip(parents, ks), 1)]
                    for gs in _compositions(g_total + len(odd), len(odd)):  # each g + 1 >= 1
                        shape = Shape(family, d, 0, edges, {v: g - 1 for v, g in zip(odd, gs)})
                        if shape.problems:  # validate() reports them for every decoration
                            continue
                        for signs in itertools.product((PLUS, MINUS), repeat=len(root_children)):
                            for r in forms:
                                tree = DecoratedTree(shape, r, tuple(zip(root_children, signs)))
                                if not tree.validate():
                                    forms[r].add(canonical_form(tree))
    return forms


@pytest.mark.parametrize("family,top", [(F.PROJECTIVE, 8), (F.TWO_SPHERICAL, 7), (F.THREE_SPHERICAL, 12)])
def test_enumeration_matches_a_brute_force_search(family, top):
    # the generator's forests, runs and minus counts against a search that
    # knows none of them, over every admissible (d, r), empty sets included
    found = 0
    for d in range(1, top + 1):
        for r, forms in brute_force_forms(family, d).items():
            got = [canonical_form(twc.tree) for twc in enumerate_decorated_trees(family, d, r)]
            assert len(got) == len(set(got)) and set(got) == forms, (family, d, r)
            found += len(forms)
    assert found > 50


def test_candidate_code_is_the_body_of_its_shape():
    # the candidates come sorted, before any shape is built, by the code read
    # off their subtrees' codes, which is the AHU code of the built shape
    checked = 0
    for family in F:
        for d in range(1, 17):
            bodies = []
            for _, _, forest in _candidates(family, d)[0]:
                body = shape_code(_build(family, d, forest)[1])
                assert body == _code(0, None, [t[4] for t in forest]), (family, d, forest)
                bodies.append(body)
                checked += 1
            assert bodies == sorted(bodies), (family, d)
    assert checked == 7648


@pytest.mark.parametrize("family,top", [(F.PROJECTIVE, 10), (F.TWO_SPHERICAL, 8), (F.THREE_SPHERICAL, 12)])
def test_candidate_window_matches_the_shape(family, top):
    # the window a candidate carries, from its root-edge count and total
    # multiplicity, is the one its shape computes from its own root edges
    checked = 0
    for d in range(1, top + 1):
        for window_top, v0, forest in _candidates(family, d)[0]:
            shape = _build(family, d, forest)[1]
            assert (window_top, v0) == (shape.window_top, len(shape.root_edges)), (family, d, forest)
            assert window_top == f_point_count(family.geometry.lagrangian, ContactVector.zero(), profile(shape, 0))
            checked += 1
    # three-spherical: generation leaves out the forests holding a vertex with
    # no integer pair count (30 more up to d = 12)
    assert checked == {F.PROJECTIVE: 64, F.TWO_SPHERICAL: 102, F.THREE_SPHERICAL: 25}[family]


def _fields(shape):
    """Every attribute of a shape, each dict as its item list, so that dict
    order counts."""
    return {name: list(value.items()) if isinstance(value, dict) else value for name, value in vars(shape).items()}


def _breadth_first(shape):
    """The vertices breadth-first from the root, neighbours in adjacency order."""
    order, seen = [shape.root], {shape.root}
    for v in order:
        for w, _ in shape.adjacency[v]:
            if w not in seen:
                seen.add(w)
                order.append(w)
    return order


def test_each_candidate_shape_equals_the_checked_construction():
    # the enumeration builds a shape from its candidate's walk, without the
    # checked constructor's search; every field must be the one the checked
    # constructor gives, dict order included (odd_vertices orders a ledger
    # row's relative factors), and bottom_up is a reversed breadth-first walk
    checked = 0
    for family, top in ((F.PROJECTIVE, 14), (F.TWO_SPHERICAL, 12), (F.THREE_SPHERICAL, 14)):
        for d in range(1, top + 1):
            for *_, forest in _candidates(family, d)[0]:
                shape = _build(family, d, forest)[1]
                assert _fields(shape) == _fields(Shape(family, d, 0, shape.edges, shape.genus)), (family, d, forest)
                assert [v for v, _, _ in reversed(shape.bottom_up)] == _breadth_first(shape)
                checked += 1
    assert checked == 1307


def reference_form(tree, *, with_signs=True, with_f=True):
    """Reference encoder: the repr of the nested tuple (k_in, label, sorted
    children) of every subtree, children sorted by their repr, which the
    production encoder must reproduce byte for byte."""
    shape = tree.shape
    adj, odd = shape.adjacency, set(shape.odd_vertices)

    def encode(v, parent, k_in):
        label = None
        if v in odd:
            label = (shape.genus[v], tree.sign(v) if with_signs else None, tree.f_size(v) if with_f else None)
        children = sorted((encode(w, v, k) for w, k in adj[v] if w != parent), key=repr)
        return (k_in, label, tuple(children))

    return repr((shape.family.value, shape.d, tree.r, encode(shape.root, -1, 0))).encode()


@pytest.mark.parametrize(
    "family,top,trees", [(F.PROJECTIVE, 10, 292), (F.TWO_SPHERICAL, 8, 444), (F.THREE_SPHERICAL, 12, 101)]
)
def test_encodings_match_the_nested_tuple_reference(family, top, trees):
    checked = 0
    for _, d, r, _ in _valid_keys({family: top}):
        for cls in enumerate_trees(family, d, r):
            assert shape_form(cls.variants[0].tree) == reference_form(cls.variants[0].tree, with_signs=False, with_f=False)
            for twc in cls.variants:
                tree = twc.tree
                assert canonical_form(tree) == reference_form(tree), (family, d, r)
                assert shape_form(tree) == shape_form(cls.variants[0].tree)
                checked += 1
    assert checked == trees


def test_tree_classes_come_in_shape_form_order():
    # classes are sorted by their shapes' codes: that must be the order of
    # the full shape encodings, which name the first failing tree of a miss
    pairs = 0
    for family, d, r, _ in _valid_keys({F.PROJECTIVE: 8, F.TWO_SPHERICAL: 8, F.THREE_SPHERICAL: 12}):
        forms = [shape_form(cls.variants[0].tree) for cls in enumerate_trees(family, d, r)]
        assert all(a < b for a, b in zip(forms, forms[1:])), (family, d, r)
        pairs += max(len(forms) - 1, 0)
    assert pairs == 351


def test_shapes_are_generated_once_per_family_and_degree(monkeypatch):
    runs = Counter()
    memo_class = trees_module._Memo

    class Counted(memo_class):  # one memo per generation run
        def __init__(self, family, d):
            runs[family, d] += 1
            super().__init__(family, d)

    monkeypatch.setattr(trees_module, "_Memo", Counted)
    _candidates.cache_clear()
    enumerated = 0
    for family in (F.PROJECTIVE, F.TWO_SPHERICAL):
        for r in range(0, 4 * 8 + 1):
            try:
                enumerate_trees(family, 8, r)
            except InadmissiblePair:
                continue
            enumerated += 1
    assert enumerated == 12 + 16  # r = 1, 3, ..., 23 and r = 1, 3, ..., 31
    assert runs == {(F.PROJECTIVE, 8): 1, (F.TWO_SPHERICAL, 8): 1}


def _count_shapes(monkeypatch):
    """Clear the candidate cache and count the shapes the enumeration builds
    from then on, each by its candidate in :func:`_build`."""
    built = Counter()

    def counted(family, d, forest):
        runs, shape = _build(family, d, forest)
        built[family, d, shape_code(shape)] += 1
        return runs, shape

    monkeypatch.setattr(trees_module, "_build", counted)
    _candidates.cache_clear()
    return built


def _inside_the_window(family, d, r):
    return [c for c in _candidates(family, d)[0] if trees_module.minus_part_size(c[0], r, c[1]) is not None]


@pytest.mark.parametrize("d,r,shapes,trees", [(9, 0, 4, 4), (10, 1, 9, 9)])
def test_shapes_are_built_only_inside_the_root_window(monkeypatch, d, r, shapes, trees):
    built = _count_shapes(monkeypatch)
    twcs = enumerate_decorated_trees(F.PROJECTIVE, d, r)
    assert sum(built.values()) == len(_inside_the_window(F.PROJECTIVE, d, r)) == shapes < len(_candidates(F.PROJECTIVE, d)[0])
    assert set(built.values()) == {1} and len(twcs) == trees
    assert {id(twc.tree.shape) for twc in twcs} <= {id(slot[1]) for slot in _candidates(F.PROJECTIVE, d)[1] if slot}


def test_plane_degree_26_builds_only_the_shapes_it_reaches(monkeypatch, capsys):
    # a miss stops at its first class whose key is unknown: of the 2,137
    # candidates in the root window, only the 16 whose classes are reached
    # become shapes
    from welschinger.cli import main

    built = _count_shapes(monkeypatch)
    reached = []
    decorate = trees_module._decorate
    monkeypatch.setattr(trees_module, "_decorate", lambda *args: reached.append(args[-1]) or decorate(*args))
    assert main(["chi", "--geometry", "cp2", "--degree", "26", "--real-points", "1"]) == 3
    assert "missing invariant" in capsys.readouterr().err
    assert sum(built.values()) == len(reached) == 16
    assert len(_inside_the_window(F.PROJECTIVE, 26, 1)) == 2137
    assert len(_candidates(F.PROJECTIVE, 26)[0]) == 19852


@pytest.mark.parametrize("family,d", [(F.PROJECTIVE, 10), (F.TWO_SPHERICAL, 8), (F.THREE_SPHERICAL, 12)])
def test_each_forest_is_built_at_most_once_across_r(monkeypatch, family, d):
    built = _count_shapes(monkeypatch)
    admissible = [r for fam, dd, r, _ in _valid_keys({family: d}) if dd == d]
    first = [canonical_form(twc.tree) for r in admissible for twc in enumerate_decorated_trees(family, d, r)]
    once = dict(built)
    again = [canonical_form(twc.tree) for r in admissible for twc in enumerate_decorated_trees(family, d, r)]
    assert first == again and built == once
    assert set(once.values()) == {1} and len(once) <= len(_candidates(family, d)[0])


def test_assignment_counts_are_computed_when_read(monkeypatch):
    calls = []

    def counted(tree):
        calls.append(tree)
        return assignment_count(tree)

    monkeypatch.setattr(trees_module, "assignment_count", counted)
    twcs = enumerate_decorated_trees(F.PROJECTIVE, 8, 1)
    assert twcs and calls == []
    # reading a count computes no r_X: it is the sum of the tree's pair counts
    monkeypatch.setattr(trees_module, "pair_condition_count", None)
    assert [twc.assignment_count for twc in twcs] == [assignment_count(twc.tree) for twc in twcs]
    [twc.assignment_count for twc in twcs]  # a second read is cached
    assert calls == [twc.tree for twc in twcs]


def test_a_multiplicity_is_computed_once_per_variant(monkeypatch):
    calls = []

    def counted(tree):
        calls.append(tree)
        return multiplicity(tree)

    monkeypatch.setattr(trees_module, "multiplicity", counted)
    twc = enumerate_decorated_trees(F.PROJECTIVE, 6, 1)[0]
    assert twc.multiplicity == twc.multiplicity == multiplicity(twc.tree)
    assert calls == [twc.tree]


def test_assignment_count_single_vertex():
    tree = next(
        v.tree for cls in enumerate_trees(F.PROJECTIVE, 5, 0) for v in cls.variants
    )
    assert assignment_count(tree) == 1


def test_m1_minus_examples():
    # a minus vertex with a single edge contributes 1
    tree5 = next(v.tree for c in enumerate_trees(F.PROJECTIVE, 5, 0) for v in c.variants)
    assert m1_minus(tree5) == 1
    # first d=7, r=0 class: minus vertex with two simple edges, root edge simple
    trees7 = [v.tree for c in enumerate_trees(F.PROJECTIVE, 7, 0) for v in c.variants]
    connected = next(t for t in trees7 if len(t.shape.adjacency) == 4)
    assert m1_minus(connected) == 2
    # minus vertex attached by a double edge among profile {2, 1}
    tree = DecoratedTree.build(
        F.PROJECTIVE, 6, 1, 0,
        [(0, 1, 2), (1, 2, 1), (2, 3, 1)],
        {1: 1, 3: 0}, {1: MINUS},
    )
    assert m1_minus(tree) == 1


def test_m1_plus_injection_counts():
    # no plus vertices -> empty injection
    tree5 = next(v.tree for c in enumerate_trees(F.PROJECTIVE, 5, 0) for v in c.variants)
    assert m1_plus(tree5) == 1
    # one plus vertex with assigned pairs (g = 1 holds 4, g = 0 none), two
    # matching simple root edges: oracle = permutations of the two candidate
    # targets taken one at a time
    tree = DecoratedTree.build(
        F.TWO_SPHERICAL, 4, 5, 0,
        [(0, 1, 1), (0, 2, 1)],
        {1: 1, 2: 0}, {1: PLUS, 2: PLUS},
    )
    assert tree._f_map == {1: 4, 2: 0}
    targets = [v for v in tree.shape.root_edges if tree.shape.root_edges[v] == 1]
    oracle = sum(1 for _ in itertools.permutations(targets, 1))
    assert m1_plus(tree) == oracle == 2
    # a plus vertex with no pairs imposes nothing
    tree_empty = DecoratedTree.build(
        F.TWO_SPHERICAL, 2, 7, 0,
        [(0, 1, 1), (0, 2, 1)],
        {1: 0, 2: 0}, {1: PLUS, 2: PLUS},
    )
    assert m1_plus(tree_empty) == 1


@given(st.lists(st.lists(st.sampled_from(["(0, None, ())", "(1, None, ())", "(2, None, ())"]), max_size=6), max_size=5))
def test_symmetries_is_the_product_of_factorials_of_equal_sibling_codes(sibling_codes):
    # the Counter formula, as the reference
    expected = math.prod(math.factorial(c) for codes in sibling_codes for c in Counter(codes).values())
    assert math.prod(trees_module._twins(list(codes)) for codes in sibling_codes) == expected


def _independent_code(edges, decorations, root):
    """Tiny AHU oracle used to certify the reconnection count."""
    adj = {}
    for u, v, k in edges:
        adj.setdefault(u, []).append((v, k))
        adj.setdefault(v, []).append((u, k))

    def code(v, parent, k_in):
        children = sorted(
            (code(w, v, k) for w, k in adj[v] if w != parent), key=repr
        )
        return (k_in, decorations.get(v), tuple(children))

    return code(root, None, 0)


def test_m2_single_connector_is_trivial():
    trees7 = [v.tree for c in enumerate_trees(F.PROJECTIVE, 7, 0) for v in c.variants]
    connected = next(
        t for t in trees7 if any(len(t.shape.adjacency[v]) == 2 for v in t.shape.even_vertices if v != t.shape.root)
    )
    assert m2_reconnection(connected) == 1
    trees8 = [v.tree for c in enumerate_trees(F.PROJECTIVE, 8, 1) for v in c.variants]
    for t in trees8:
        assert m2_reconnection(t) == 1


def test_m2_symmetric_double_connector():
    # two identical branches root--a--(connector)--b; both branch-preserving
    # reconnections keep the isomorphism type, the crossing one breaks the tree
    tree = DecoratedTree.build(
        F.PROJECTIVE, 22, 1, 0,
        [
            (0, 1, 1), (1, 101, 1), (101, 2, 1),
            (0, 3, 1), (3, 102, 1), (102, 4, 1),
        ],
        {1: 1, 2: 1, 3: 1, 4: 1},
        {1: MINUS, 3: MINUS},
    )
    assert tree.validate() == [] and tree._f_map == {1: 9, 2: 7, 3: 9, 4: 7}
    # oracle: enumerate the three pairings of the four half-edge endpoints
    # and keep those whose rebuilt tree has the original independent code
    kept = [(0, 1, 1), (0, 3, 1)]
    deco = {1: ("g1f9",), 2: ("g1f7",), 3: ("g1f9",), 4: ("g1f7",)}
    base = _independent_code(
        kept + [(1, 101, 1), (101, 2, 1), (3, 102, 1), (102, 4, 1)], deco, 0
    )
    good = 0
    for pairing in ([(1, 2), (3, 4)], [(1, 4), (3, 2)], [(1, 3), (2, 4)]):
        edges = list(kept)
        for i, (x, y) in enumerate(pairing):
            edges.append((x, 200 + i, 1))
            edges.append((200 + i, y, 1))
        seen = {0}
        frontier = [0]
        adj = {}
        for u, v, k in edges:
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        while frontier:
            nxt = [w for u in frontier for w in adj.get(u, []) if w not in seen]
            seen.update(nxt)
            frontier = nxt
        if len(seen) < 7:
            continue  # not connected -> produced a cycle elsewhere
        if _independent_code(edges, deco, 0) == base:
            good += 1
    assert good == 2
    assert m2_reconnection(tree) == 2


def brute_force_m2(tree):
    """Reference m2: try every perfect matching of the 2k connector
    endpoints, rebuild the tree with a fresh connector per matched pair, and
    count the rebuilt trees with the original canonical form."""
    shape = tree.shape
    adj = shape.adjacency
    connectors = [v for v in shape.even_vertices if v != shape.root and len(adj[v]) == 2]
    endpoints = [w for c in connectors for w, _ in adj[c]]
    kept = [e for e in shape.edges if e[0] not in connectors and e[1] not in connectors]
    fresh = max(adj) + 1

    def matchings(slots):
        if not slots:
            yield []
            return
        for j in range(1, len(slots)):
            for rest in matchings(slots[1:j] + slots[j + 1:]):
                yield [(slots[0], slots[j])] + rest

    total = 0
    for pairing in matchings(list(range(len(endpoints)))):
        edges = list(kept)
        for nid, (a, b) in enumerate(pairing, fresh):
            edges += [(endpoints[a], nid, 1), (endpoints[b], nid, 1)]
        try:
            candidate = DecoratedTree.build(
                shape.family, shape.d, tree.r, shape.root, edges, shape.genus, tree.signs
            )
        except ValueError:  # the re-pairing left a cycle and a detached part
            continue
        total += canonical_form(candidate) == canonical_form(tree)
    return total


def test_m2_matches_brute_force_reconnection():
    checked = 0
    for family, d, r, _ in _valid_keys({F.PROJECTIVE: 14}):
        for twc in enumerate_decorated_trees(family, d, r):
            assert m2_reconnection(twc.tree) == brute_force_m2(twc.tree), canonical_form(twc.tree)
            checked += 1
    assert checked == 2179


def test_m2_distinct_connector_children():
    # vertex 1 holds two connectors, to a g = 0 leaf 3 and a g = 1 leaf 5.
    # Of the three pairings of the endpoints {1, 1, 3, 5}, the two joining 1
    # to both leaves (in either slot order) rebuild the tree; joining 1 to
    # itself leaves a cycle.  So m2 = 2! * |Aut F| / |Aut T| = 2 * 1 / 1.
    tree = DecoratedTree.build(
        F.PROJECTIVE, 13, 0, 0,
        [(0, 1, 1), (1, 2, 1), (1, 4, 1), (2, 3, 1), (4, 5, 1)],
        {1: 1, 3: 0, 5: 1},
        {1: MINUS},
    )
    assert tree.validate() == [] and tree._f_map == {1: 11, 3: 1, 5: 7}
    assert m2_reconnection(tree) == brute_force_m2(tree) == 2


def test_canonical_form_separates_decorations():
    base = dict(
        family=F.PROJECTIVE, d=5, r=0, root=0,
        edges=[(0, 1, 1)], genus={1: 1}, signs={1: MINUS},
    )
    t1 = DecoratedTree.build(**base)
    t2 = DecoratedTree.build(**{**base, "genus": {1: 0}})
    t3 = DecoratedTree.build(**{**base, "signs": {1: PLUS}})
    assert canonical_form(t1) != canonical_form(t2)
    assert canonical_form(t1) != canonical_form(t3)


_tree_pool = [
    twc.tree
    for fam, table in EXPECTED_CLASS_COUNTS.items()
    for (d, r) in table
    for twc in enumerate_decorated_trees(fam, d, r)
]


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=len(_tree_pool) - 1), st.randoms(use_true_random=False))
def test_canonical_form_relabeling_invariance(index, rng):
    tree = _tree_pool[index]
    shape = tree.shape
    verts = list(shape.adjacency)
    image = rng.sample(range(500, 500 + 5 * len(verts)), len(verts))
    relabel = dict(zip(verts, image))
    shuffled = DecoratedTree.build(
        shape.family,
        shape.d,
        tree.r,
        relabel[shape.root],
        [(relabel[u], relabel[v], k) for u, v, k in shape.edges],
        {relabel[v]: g for v, g in shape.genus.items()},
        {relabel[v]: s for v, s in tree.signs},
    )
    assert canonical_form(shuffled) == canonical_form(tree)


def test_multiplicity_divisible_by_edge_product():
    for family, table in EXPECTED_CLASS_COUNTS.items():
        for d, r in table:
            for twc in enumerate_decorated_trees(family, d, r):
                product = math.prod(k for _, _, k in twc.tree.shape.edges)
                assert multiplicity(twc.tree) >= 1
                assert multiplicity(twc.tree) % product == 0


def reference_pair_count(family, g, k_s, valence, plus):
    """The per-family point-count formulas that the one equation of
    ``expected_pair_count`` replaced."""
    if family is F.PROJECTIVE:
        f = 6 * g + k_s + valence - 1 - plus
    elif family is F.TWO_SPHERICAL:
        f = 4 * g + k_s + valence - 1 - plus
    else:  # every odd vertex is a leaf on the root
        num = 3 * g + k_s + 1 - 2 * plus
        return None if num < 0 or num % 2 else num // 2
    return f if f >= 0 else None


def test_pair_count_equation_matches_the_per_family_formulas():
    outcomes = Counter()
    for family in F:
        valences = (1,) if family is F.THREE_SPHERICAL else range(1, 5)
        for g, k_s, valence, plus in itertools.product(range(5), range(6), valences, (False, True)):
            expect = reference_pair_count(family, g, k_s, valence, plus)
            got = trees_module.expected_pair_count(family, g, k_s, valence, plus)
            assert got == expect, (family, g, k_s, valence, plus)
            outcomes[family, expect is None] += 1
    # the grid reaches both a solution and no solution in every family
    assert all(outcomes[family, True] and outcomes[family, False] for family in F)


def test_pair_counts_are_solved_once_per_tree(monkeypatch):
    calls = []
    solve = trees_module.expected_pair_count
    monkeypatch.setattr(trees_module, "expected_pair_count", lambda *args: calls.append(args) or solve(*args))
    twcs = enumerate_decorated_trees(F.PROJECTIVE, 7, 0)
    assert calls
    calls.clear()
    for twc in twcs:
        assert twc.tree.validate() == [] and twc.multiplicity >= 1
    assert calls == []


def test_pair_totals_match_the_bookkeeping():
    from welschinger.trees import pair_condition_count

    for family, table in EXPECTED_CLASS_COUNTS.items():
        for d, r in table:
            r_x = pair_condition_count(family, d, r)
            for twc in enumerate_decorated_trees(family, d, r):
                assert sum(twc.tree._f_map.values()) == r_x


def test_root_counts_match_real_point_count():
    from welschinger import LagrangianKind, f_point_count

    kind_of = {
        F.PROJECTIVE: LagrangianKind.RP2,
        F.TWO_SPHERICAL: LagrangianKind.SPHERE2,
        F.THREE_SPHERICAL: LagrangianKind.SPHERE3,
    }
    for family, table in EXPECTED_CLASS_COUNTS.items():
        for d, r in table:
            for twc in enumerate_decorated_trees(family, d, r):
                alpha, beta = map(ContactVector, twc.tree.root_counts)
                assert f_point_count(kind_of[family], alpha, beta) == r


def test_json_dump_schema_and_stability():
    classes = enumerate_trees(F.PROJECTIVE, 6, 1)
    payload = tree_to_json_dict(classes[0].variants[0])
    assert set(payload) == {"family", "d", "r", "vertices", "edges", "assignment_count", "multiplicity"}
    assert {"id", "parity", "sign", "g", "f_size"} == set(payload["vertices"][0])
    assert {"u", "v", "k"} == set(payload["edges"][0])
    assert trees_to_json(classes) == trees_to_json(enumerate_trees(F.PROJECTIVE, 6, 1))
    # the dump is the standard library's indented, key-sorted JSON, byte for byte
    for family, d, r in ((F.PROJECTIVE, 8, 1), (F.TWO_SPHERICAL, 5, 3), (F.THREE_SPHERICAL, 10, 1)):
        classes = enumerate_trees(family, d, r)
        payload = [tree_to_json_dict(twc) for cls in classes for twc in cls.variants]
        assert trees_to_json(classes) == json.dumps(payload, indent=2, sort_keys=True)
    assert trees_to_json([]) == "[]"


def test_deterministic_order():
    a = enumerate_trees(F.PROJECTIVE, 7, 2)
    b = enumerate_trees(F.PROJECTIVE, 7, 2)
    assert [canonical_form(v.tree) for c in a for v in c.variants] == [
        canonical_form(v.tree) for c in b for v in c.variants
    ]


def test_profiles_as_contact_vectors():
    tree = next(v.tree for c in enumerate_trees(F.PROJECTIVE, 6, 1) for v in c.variants if len(v.tree.shape.adjacency) == 2)
    (vertex,) = tree.shape.odd_vertices
    assert profile(tree.shape, vertex) == ContactVector.e(2)
    # an edge of multiplicity 0 is no contact: no tree holds one
    with pytest.raises(ValueError, match="edge multiplicities must be >= 1"):
        DecoratedTree.build(**{**_VALID, "edges": [(0, 1, 0)]})


# a valid projective tree for (d, r) = (5, 0): one minus vertex of degree 1
_VALID = dict(
    family=F.PROJECTIVE, d=5, r=0, root=0,
    edges=[(0, 1, 1)], genus={1: 1}, signs={1: MINUS},
)


@pytest.mark.parametrize(
    "changes,problem",
    [
        ({"r": 4}, "outside the root window"),
        ({"signs": {1: PLUS}}, "minus part of the partition has the wrong size"),
        ({"genus": {1: 2}}, "degree equation fails"),
        ({"edges": [(0, 1, 1), (1, 2, 1)]}, "even vertex 2 has a shape"),
        (
            {"family": F.TWO_SPHERICAL, "d": 3, "r": 1, "edges": [(0, 1, 1), (1, 2, 2)]},
            "even vertex 2 has a shape",
        ),
        (
            {"family": F.THREE_SPHERICAL, "d": 4, "r": 2, "edges": [(0, 1, 1), (1, 2, 1)]},
            "even vertex 2 has a shape",
        ),
        ({"edges": [(0, 1, 5)], "genus": {1: 0}}, "degree 0 but contact multiplicity 5"),
        ({"r": 2}, "total assigned pairs differ"),
        ({"signs": {}}, "sign partition must cover exactly the root-adjacent vertices"),
    ],
    ids=[
        "root-window",
        "minus-part-size",
        "degree-equation",
        "even-shape-projective",
        "even-shape-two-spherical",
        "even-shape-three-spherical",
        "degree-zero-multiple-contact",
        "pair-total",
        "sign-partition-cover",
    ],
)
def test_validate_rejects_each_broken_rule(changes, problem):
    assert DecoratedTree.build(**_VALID).validate() == []
    problems = DecoratedTree.build(**{**_VALID, **changes}).validate()
    assert problems and any(problem in p for p in problems), problems


def test_validate_raises_outside_the_domain():
    # (d, r) = (4, 1) leaves no integer r_X over the 3-quadric: a domain error, not a rule of the tree
    tree = DecoratedTree.build(**{**_VALID, "family": F.THREE_SPHERICAL, "d": 4, "r": 1})
    with pytest.raises(InadmissiblePair, match=r"^\(quadric3, d=4, r=1\) is not an admissible pair$"):
        tree.validate()


@pytest.mark.parametrize(
    "changes,problem",
    [
        ({"edges": [(0, 1, 1), (2, 3, 1)], "genus": {1: 1, 3: 0}}, "tree is not connected"),
        ({"edges": [(0, 1, 0)]}, "edge multiplicities must be >= 1"),
        (
            {"edges": [(0, 1, 1), (1, 2, 2), (2, 3, 1), (3, 0, 1)], "genus": {1: 1, 3: 0}},
            "edge count is not vertex count minus one",
        ),
        ({"genus": {1: 1, 2: 0}}, "genus must decorate exactly the odd vertices"),
    ],
    ids=["disconnected", "zero-multiplicity", "cycle", "genus-off-the-odd-vertices"],
)
def test_build_rejects_a_structure_that_is_not_a_tree(changes, problem):
    with pytest.raises(ValueError, match=problem):
        DecoratedTree.build(**{**_VALID, **changes})


def test_enumeration_bound_raises_a_typed_error(monkeypatch):
    monkeypatch.setattr(trees_module, "CANDIDATE_BOUND", 60)
    _candidates.cache_clear()
    assert len(enumerate_trees(F.PROJECTIVE, 10, 1)) == 9  # 24 forests, 23 subtrees
    message = r"^\(projective, d=12\) has more than 60 candidate subtrees and forests, the enumeration bound$"
    with pytest.raises(EnumerationTooLarge, match=message):
        enumerate_trees(F.PROJECTIVE, 12, 1)  # 57 forests, 51 subtrees
    with pytest.raises(EnumerationTooLarge, match=message):  # a failed run caches no candidates
        enumerate_trees(F.PROJECTIVE, 12, 1)
    assert _candidates.cache_info().currsize == 1


def test_a_three_spherical_vertex_tries_only_the_degree_that_uses_up_its_cost(monkeypatch):
    # with no pendant and no connector an odd vertex has no child, so a huge
    # degree reaches the bound without a forest generator per smaller g
    calls = []
    forests = trees_module._forests
    monkeypatch.setattr(trees_module, "_forests", lambda *args: calls.append(1) or forests(*args))
    with pytest.raises(EnumerationTooLarge, match=r"^\(three-spherical, d=1000000000\) has more than 50,000 "):
        _candidates(F.THREE_SPHERICAL, 10**9)
    assert len(calls) < 1_000_000


def test_decorated_trees_share_their_cached_shape(monkeypatch):
    encoded = []
    codes = trees_module._codes

    def counted(shape, signs, f_sizes):
        encoded.append("tree" if f_sizes else "shape")
        return codes(shape, signs, f_sizes)

    monkeypatch.setattr(trees_module, "_codes", counted)
    _candidates.cache_clear()
    variants = [twc.tree for r in (1, 3) for c in enumerate_trees(F.PROJECTIVE, 6, r) for twc in c.variants]
    candidates, slots = _candidates(F.PROJECTIVE, 6)
    shapes = [slot[1] for slot in slots if slot is not None]
    # every tree holds its cached shape by identity, only the shapes that
    # carry a tree are built, each once for both values of r, and no shape
    # is encoded on its own: only the trees are
    assert all(any(tree.shape is shape for shape in shapes) for tree in variants)
    used = {id(tree.shape) for tree in variants}
    assert len(variants) == 5 and len(used) == len(shapes) == 2 < len(candidates)
    assert Counter(encoded) == {"tree": 5}
    for tree in variants:
        assert canonical_form(tree) is canonical_form(tree) and tree.codes is tree.codes
    assert Counter(encoded) == {"tree": 5}


def test_every_built_shape_carries_a_tree(monkeypatch):
    # a frontier --max-degree 8 pass; generation leaves out a vertex with no
    # integer pair count, such as the three-spherical g = 1 leaf on a simple
    # edge (3g + k_s - 1 = 3 is odd), whose d = 8 forest would be shape 135
    built = []
    monkeypatch.setattr(trees_module, "_build", lambda *args: built.append(_build(*args)) or built[-1])
    _candidates.cache_clear()
    for family in F:
        for d in range(1, 9):
            for r in admissible_real_counts(family.geometry, d):
                new = len(built)
                carried = {id(twc.tree.shape) for twc in enumerate_decorated_trees(family, d, r)}
                assert all(id(shape) in carried for _, shape in built[new:]), (family, d, r)
    assert len(built) == 134


def test_shape_rules_are_checked_once_per_shape(monkeypatch):
    # validate() runs on every yielded tree, the r-free rules once per shape
    runs, validated = [], []
    rules, validate = Shape.problems.fn, DecoratedTree.validate

    @functools.wraps(rules)
    def counted(shape):
        runs.append(shape)
        return rules(shape)

    monkeypatch.setattr(Shape, "problems", _cached(counted))
    monkeypatch.setattr(DecoratedTree, "validate", lambda tree: validated.append(tree) or validate(tree))
    _candidates.cache_clear()
    variants = [twc.tree for r in (1, 3) for twc in enumerate_decorated_trees(F.PROJECTIVE, 6, r)]
    assert len(variants) == len(validated) == 5
    assert len(runs) == len({id(tree.shape) for tree in variants}) == 2


def test_enumeration_raises_on_a_tree_that_fails_validation(monkeypatch):
    # a generator fault must stop enumeration, not silently drop the tree
    # and change chi
    monkeypatch.setattr(DecoratedTree, "validate", lambda self: ["injected problem"])
    with pytest.raises(RuntimeError, match=r"generated an invalid tree \('projective', 6, 1, .*\): injected problem$"):
        enumerate_trees(F.PROJECTIVE, 6, 1)
