"""Decorated tree enumeration, canonical forms and multiplicity factors."""

import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from welschinger import (
    ContactVector,
    DecoratedTree,
    InvalidDegreeRealPair,
    TreeFamily,
    assignment_count,
    canonical_form,
    enumerate_decorated_trees,
    enumerate_trees,
    m1_minus,
    m1_plus,
    m2_reconnection,
    multiplicity,
)
from welschinger.trees import (
    MINUS,
    PLUS,
    _candidate_graphs,
    _decorate,
    automorphisms,
    pair_condition_count,
    shape_form,
    tree_to_json_dict,
    trees_to_json,
)

F = TreeFamily

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
    with pytest.raises(InvalidDegreeRealPair):
        enumerate_trees(F.PROJECTIVE, 5, 1)  # parity of 3d-1 forces r even
    with pytest.raises(InvalidDegreeRealPair):
        enumerate_trees(F.THREE_SPHERICAL, 3, 1)  # 3d odd


def test_round_trip_validation():
    for family, table in EXPECTED_CLASS_COUNTS.items():
        for d, r in table:
            for twc in enumerate_decorated_trees(family, d, r):
                assert twc.tree.validate() == []


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
        if len(v.tree.root_adjacent()) == 3
    )
    twins = [v for v in tree.odd_vertices() if tree.g(v) == 0]
    heavy = next(v for v in tree.odd_vertices() if tree.g(v) == 1)
    pairs = frozenset(range(9))
    labelings = set()
    for a in itertools.combinations(sorted(pairs), 1):
        rest = pairs - set(a)
        for b in itertools.combinations(sorted(rest), 1):
            big = rest - set(b)
            # the two leaves carry identical decorations, so an assignment is
            # determined up to isomorphism by the unordered pair {a, b}
            labelings.add((frozenset({a, b}), tuple(sorted(big))))
    assert len(twins) == 2 and tree.g(heavy) == 1
    assert assignment_count(tree, 9) == len(labelings) == 36


def burnside_assignment_count(tree, r_x):
    """Reference count: Burnside averaging over the listed automorphisms that
    preserve degree and sign decorations (an automorphism fixes an assignment
    iff it fixes every vertex holding a non-empty subset)."""
    fmap = dict(tree.f_sizes)
    multinomial = math.factorial(r_x)
    for f in fmap.values():
        multinomial //= math.factorial(f)
    group = automorphisms(tree, with_f=False)
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
                except InvalidDegreeRealPair:
                    continue


def test_assignment_count_matches_burnside():
    checked = 0
    for family, d, r, r_x in _valid_keys({F.PROJECTIVE: 8, F.TWO_SPHERICAL: 8, F.THREE_SPHERICAL: 12}):
        for twc in enumerate_decorated_trees(family, d, r):
            assert twc.assignment_count == burnside_assignment_count(twc.tree, r_x), (family, d, r)
            checked += 1
    assert checked == 645


@pytest.mark.parametrize("family,top", [(F.PROJECTIVE, 10), (F.TWO_SPHERICAL, 8), (F.THREE_SPHERICAL, 12)])
def test_each_candidate_shape_is_generated_once(family, top):
    for d in range(1, top + 1):
        graphs = _candidate_graphs(family, d)
        shapes = [shape_form(DecoratedTree.build(family, d, 0, 0, e, g, {}, {})) for e, g, _ in graphs]
        assert len(shapes) == len(set(shapes)), (family, d)
    # and each decorated tree: no two that the decoration step yields are isomorphic
    for _, d, r, _ in _valid_keys({family: top}):
        forms = [canonical_form(t) for shape in _candidate_graphs(family, d) for t in _decorate(family, d, r, *shape)]
        assert len(forms) == len(set(forms)), (family, d, r)


def test_assignment_count_single_vertex():
    tree = next(
        v.tree for cls in enumerate_trees(F.PROJECTIVE, 5, 0) for v in cls.variants
    )
    assert assignment_count(tree, 7) == 1


def test_m1_minus_examples():
    # a minus vertex with a single edge contributes 1
    tree5 = next(v.tree for c in enumerate_trees(F.PROJECTIVE, 5, 0) for v in c.variants)
    assert m1_minus(tree5) == 1
    # first d=7, r=0 class: minus vertex with two simple edges, root edge simple
    trees7 = [v.tree for c in enumerate_trees(F.PROJECTIVE, 7, 0) for v in c.variants]
    connected = next(t for t in trees7 if len(t.vertices()) == 4)
    assert m1_minus(connected) == 2
    # minus vertex attached by a double edge among profile {2, 1}
    tree = DecoratedTree.build(
        F.PROJECTIVE, 6, 1, 0,
        [(0, 1, 2), (1, 2, 1), (2, 3, 1)],
        {1: 1, 3: 0}, {1: MINUS}, {1: 9, 3: 1},
    )
    assert m1_minus(tree) == 1


def test_m1_plus_injection_counts():
    # no plus vertices -> empty injection
    tree5 = next(v.tree for c in enumerate_trees(F.PROJECTIVE, 5, 0) for v in c.variants)
    assert m1_plus(tree5) == 1
    # one plus vertex with assigned pairs, two matching simple root edges:
    # oracle = permutations of the two candidate targets taken one at a time
    tree = DecoratedTree.build(
        F.TWO_SPHERICAL, 4, 5, 0,
        [(0, 1, 1), (0, 2, 1)],
        {1: 1, 2: 1}, {1: PLUS, 2: PLUS}, {1: 5, 2: 0},
    )
    targets = [v for v in tree.root_adjacent() if tree.root_edge_multiplicity(v) == 1]
    oracle = sum(1 for _ in itertools.permutations(targets, 1))
    assert m1_plus(tree) == oracle == 2
    # a plus vertex with no pairs imposes nothing
    tree_empty = DecoratedTree.build(
        F.TWO_SPHERICAL, 2, 7, 0,
        [(0, 1, 1), (0, 2, 1)],
        {1: 0, 2: 0}, {1: PLUS, 2: PLUS}, {1: 0, 2: 0},
    )
    assert m1_plus(tree_empty) == 1


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
    connected = next(t for t in trees7 if t.bivalent_connectors())
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
        {1: 9, 2: 7, 3: 9, 4: 7},
    )
    assert tree.validate() == []
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


def test_canonical_form_separates_decorations():
    base = dict(
        family=F.PROJECTIVE, d=5, r=0, root=0,
        edges=[(0, 1, 1)], genus={1: 1}, signs={1: MINUS}, f_sizes={1: 7},
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
    verts = tree.vertices()
    image = rng.sample(range(500, 500 + 5 * len(verts)), len(verts))
    relabel = dict(zip(verts, image))
    shuffled = DecoratedTree.build(
        tree.family,
        tree.d,
        tree.r,
        relabel[tree.root],
        [(relabel[u], relabel[v], k) for u, v, k in tree.edges],
        {relabel[v]: g for v, g in tree.genus},
        {relabel[v]: s for v, s in tree.signs},
        {relabel[v]: f for v, f in tree.f_sizes},
    )
    assert canonical_form(shuffled) == canonical_form(tree)


def test_multiplicity_divisible_by_edge_product():
    for family, table in EXPECTED_CLASS_COUNTS.items():
        for d, r in table:
            for twc in enumerate_decorated_trees(family, d, r):
                product = math.prod(k for _, _, k in twc.tree.edges)
                assert multiplicity(twc.tree) >= 1
                assert multiplicity(twc.tree) % product == 0


def test_pair_totals_match_the_bookkeeping():
    from welschinger.trees import pair_condition_count

    for family, table in EXPECTED_CLASS_COUNTS.items():
        for d, r in table:
            r_x = pair_condition_count(family, d, r)
            for twc in enumerate_decorated_trees(family, d, r):
                assert sum(f for _, f in twc.tree.f_sizes) == r_x


def test_root_profiles_match_real_point_count():
    from welschinger import LagrangianKind, f_point_count

    kind_of = {
        F.PROJECTIVE: LagrangianKind.RP2,
        F.TWO_SPHERICAL: LagrangianKind.SPHERE2,
        F.THREE_SPHERICAL: LagrangianKind.SPHERE3,
    }
    for family, table in EXPECTED_CLASS_COUNTS.items():
        for d, r in table:
            for twc in enumerate_decorated_trees(family, d, r):
                alpha, beta = twc.tree.root_profiles()
                assert f_point_count(kind_of[family], alpha, beta) == r


def test_json_dump_schema_and_stability():
    classes = enumerate_trees(F.PROJECTIVE, 6, 1)
    payload = tree_to_json_dict(classes[0].variants[0])
    assert set(payload) == {"family", "d", "r", "vertices", "edges", "assignment_count", "multiplicity"}
    assert {"id", "parity", "sign", "g", "f_size"} == set(payload["vertices"][0])
    assert {"u", "v", "k"} == set(payload["edges"][0])
    assert trees_to_json(classes) == trees_to_json(enumerate_trees(F.PROJECTIVE, 6, 1))


def test_deterministic_order():
    a = enumerate_trees(F.PROJECTIVE, 7, 2)
    b = enumerate_trees(F.PROJECTIVE, 7, 2)
    assert [canonical_form(v.tree) for c in a for v in c.variants] == [
        canonical_form(v.tree) for c in b for v in c.variants
    ]


def test_profiles_as_contact_vectors():
    tree = next(v.tree for c in enumerate_trees(F.PROJECTIVE, 6, 1) for v in c.variants if len(v.tree.vertices()) == 2)
    (vertex,) = tree.odd_vertices()
    assert tree.profile(vertex) == ContactVector.e(2)


# a valid projective tree for (d, r) = (5, 0): one minus vertex of degree 1
_VALID = dict(
    family=F.PROJECTIVE, d=5, r=0, root=0,
    edges=[(0, 1, 1)], genus={1: 1}, signs={1: MINUS}, f_sizes={1: 7},
)


@pytest.mark.parametrize(
    "changes,problem",
    [
        ({"edges": [(0, 1, 1), (2, 3, 1)], "genus": {1: 1, 3: 0}, "f_sizes": {1: 7, 3: 0}}, "tree is not connected"),
        ({"r": 4}, "outside the root window"),
        ({"signs": {1: PLUS}}, "minus part of the partition has the wrong size"),
        ({"genus": {1: 2}}, "degree equation fails"),
        ({"edges": [(0, 1, 1), (1, 2, 1)]}, "even vertex 2 has a shape"),
        (
            {"family": F.TWO_SPHERICAL, "d": 3, "r": 1, "edges": [(0, 1, 1), (1, 2, 2)], "f_sizes": {1: 6}},
            "even vertex 2 has a shape",
        ),
        (
            {"family": F.THREE_SPHERICAL, "d": 4, "r": 1, "edges": [(0, 1, 1), (1, 2, 1)], "f_sizes": {1: 3}},
            "even vertex 2 has a shape",
        ),
        ({"edges": [(0, 1, 5)], "genus": {1: 0}}, "degree 0 but contact multiplicity 5"),
        ({"f_sizes": {1: 6}}, "total assigned pairs differ"),
    ],
    ids=[
        "disconnected",
        "root-window",
        "minus-part-size",
        "degree-equation",
        "even-shape-projective",
        "even-shape-two-spherical",
        "even-shape-three-spherical",
        "degree-zero-multiple-contact",
        "pair-total",
    ],
)
def test_validate_rejects_each_broken_rule(changes, problem):
    assert DecoratedTree.build(**_VALID).validate() == []
    problems = DecoratedTree.build(**{**_VALID, **changes}).validate()
    assert problems and any(problem in p for p in problems), problems
    if problem == "tree is not connected":
        assert problems == [problem]


def test_structure_is_computed_once_and_lazily():
    tree = DecoratedTree.build(**_VALID)
    assert "_adjacency" not in vars(tree)
    assert tree.adjacency() is tree.adjacency()
    assert tree.depths() is tree.depths()
    assert tree.odd_vertices() is tree.odd_vertices()
    assert tree.root_adjacent() is tree.root_adjacent()
