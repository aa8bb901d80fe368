"""Decorated splitting trees and their enumeration.

A two-stage limit of a real rational curve, obtained by stretching the neck
of the almost-complex structure along a Lagrangian L, is encoded by a rooted
tree: the root is the unique component fixed by the real involution, edges
carry the multiplicities of the shared asymptotic orbits, vertices at odd
distance from the root are conjugate pairs of components outside T*L, and
vertices at even distance are pairs of components inside T*L.

Three families occur, one per Lagrangian:

* ``PROJECTIVE``   (L = RP^2): even vertices other than the root are either
  leaves on a double edge or connectors with two simple edges.
* ``TWO_SPHERICAL`` (L = S^2): even vertices other than the root are leaves
  on a simple edge, so the tree has depth at most 2.
* ``THREE_SPHERICAL`` (L = S^3): every non-root vertex is a leaf adjacent to
  the root.

Decorations: every odd vertex carries a genus-like degree g >= 0 and a count
of assigned conjugate point pairs; root-adjacent odd vertices are split into
a plus/minus partition recording whether their asymptotic orbit stays free
or is prescribed by the root component.  Odd vertices at distance >= 3
behave like minus vertices in every formula.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from .contact import ContactVector, GeometryKind
from .errors import InvalidDegreeRealPair

__all__ = [
    "TreeFamily",
    "FamilyRules",
    "FAMILY_OF",
    "DecoratedTree",
    "TreeWithCount",
    "TreeClass",
    "enumerate_trees",
    "enumerate_decorated_trees",
    "canonical_form",
    "multiplicity",
    "m1_minus",
    "m1_plus",
    "m2_reconnection",
    "assignment_count",
    "tree_to_json_dict",
]

PLUS = "+"
MINUS = "-"


class TreeFamily(Enum):
    PROJECTIVE = "projective"
    TWO_SPHERICAL = "two-spherical"
    THREE_SPHERICAL = "three-spherical"

    @property
    def rules(self) -> "FamilyRules":
        return _RULES[self]


@dataclass(frozen=True)
class FamilyRules:
    """The rules that tell the three tree families apart.

    * Degree equation: ``scale * k_total + genus_coefficient * sum(g) = d``.
    * Even vertices other than the root are leaves on an edge of multiplicity
      ``pendant`` (0: no such leaves) or, when ``connectors`` is set, simple
      bivalent connectors between two odd vertices.
    * ``point_coefficient`` is the coefficient of g in the point-count
      equation of an odd vertex (:func:`expected_pair_count`).
    * The geometry fixes the pair-condition total through its Chern degree
      and its Lagrangian's dimension, and the root window through the
      Lagrangian's dimension and orbit weight.
    """

    geometry: GeometryKind
    scale: int
    genus_coefficient: int
    point_coefficient: int
    pendant: int
    connectors: bool

    @property
    def even_shapes(self) -> set[tuple[int, ...]]:
        """Sorted edge multiplicities allowed at an even vertex other than the root."""
        shapes = {(self.pendant,)} if self.pendant else set()
        if self.connectors:
            shapes.add((1, 1))
        return shapes

    def genus_total(self, d: int, k_total: int) -> int | None:
        """sum(g) forced by the degree equation; None when no integer >= 0 solves it."""
        g, rem = divmod(d - self.scale * k_total, self.genus_coefficient)
        return None if rem or g < 0 else g

    def point_total(self, d: int) -> int | None:
        """r + 2 r_X in degree d, from (n - 1)(r + 2 r_X) = c1.d + n - 3 with
        n the dimension of the Lagrangian; None when no integer solves it."""
        n = self.geometry.lagrangian.dimension
        total, rem = divmod(self.geometry.chern_degree(d) + n - 3, n - 1)
        return None if rem else total


_RULES = {
    TreeFamily.PROJECTIVE: FamilyRules(
        GeometryKind.PROJECTIVE_PLANE, scale=1, genus_coefficient=4, point_coefficient=6, pendant=2, connectors=True
    ),
    TreeFamily.TWO_SPHERICAL: FamilyRules(
        GeometryKind.ELLIPSOID_QUADRIC2, scale=1, genus_coefficient=2, point_coefficient=4, pendant=1, connectors=False
    ),
    TreeFamily.THREE_SPHERICAL: FamilyRules(
        GeometryKind.ELLIPSOID_QUADRIC3, scale=2, genus_coefficient=2, point_coefficient=3, pendant=0, connectors=False
    ),
}

FAMILY_OF: dict[GeometryKind, TreeFamily] = {rules.geometry: family for family, rules in _RULES.items()}


def pair_condition_count(family: TreeFamily, d: int, r: int) -> int:
    """Number r_X of conjugate point pairs imposed together with r real points.

    Raises InvalidDegreeRealPair when the bookkeeping equation
    r + 2 r_X = :meth:`FamilyRules.point_total` has no non-negative integer
    solution.
    """
    if d < 1 or r < 0:
        raise InvalidDegreeRealPair(f"need d >= 1 and r >= 0, got d={d}, r={r}")
    total = family.rules.point_total(d)
    if total is None:
        raise InvalidDegreeRealPair(f"{family.value}: no integral point count in degree d={d}")
    if r > total or (total - r) % 2:
        raise InvalidDegreeRealPair(f"{family.value}: no r_X >= 0 with the right parity for d={d}, r={r}")
    return (total - r) // 2


def minus_part_size(family: TreeFamily, r: int, k0: int, v0: int) -> int | None:
    """Size r_L of the minus part of the root partition, or None (root window).

    The root has v0 edges of total multiplicity k0.  With r_L of them minus
    (prescribed), the root component is rigid on
    ``eps * k0 + 2 (v0 - r_L) - 1`` real points when L is a surface and on
    ``eps * k0 + v0 - 2 r_L`` when L = S^3 (eps is the orbit weight: 2 for
    spheres, 1 for RP^2), as in :func:`~welschinger.contact.f_point_count`.
    """
    kind = family.rules.geometry.lagrangian
    top = kind.epsilon * k0 + (2 * v0 - 1 if kind.dimension == 2 else v0)
    r_l, odd = divmod(top - r, 2)
    return None if odd or not 0 <= r_l <= v0 else r_l


@dataclass(frozen=True)
class DecoratedTree:
    """Immutable decorated tree.

    ``edges`` are (parent, child, multiplicity) triples; ``genus``, ``signs``
    and ``f_sizes`` are sorted (vertex, value) tuples over odd vertices (signs
    over root-adjacent odd vertices only).  Vertex ids are arbitrary ints;
    isomorphism is decided by :func:`canonical_form`.  The structure derived
    from these fields is computed once per instance, on first use; the
    returned lists and dicts are shared and must not be modified.
    """

    family: TreeFamily
    d: int
    r: int
    root: int
    edges: tuple[tuple[int, int, int], ...]
    genus: tuple[tuple[int, int], ...]
    signs: tuple[tuple[int, str], ...]
    f_sizes: tuple[tuple[int, int], ...]

    @classmethod
    def build(cls, family, d, r, root, edges, genus, signs, f_sizes) -> "DecoratedTree":
        return cls(
            family=family,
            d=d,
            r=r,
            root=root,
            edges=tuple(sorted((int(u), int(v), int(k)) for u, v, k in edges)),
            genus=tuple(sorted((int(v), int(g)) for v, g in dict(genus).items())),
            signs=tuple(sorted((int(v), s) for v, s in dict(signs).items())),
            f_sizes=tuple(sorted((int(v), int(f)) for v, f in dict(f_sizes).items())),
        )

    # -- structure ---------------------------------------------------------

    @cached_property
    def _adjacency(self) -> dict[int, list[tuple[int, int]]]:
        verts = {self.root}
        for u, v, _ in self.edges:
            verts.update((u, v))
        adj: dict[int, list[tuple[int, int]]] = {v: [] for v in sorted(verts)}
        for u, v, k in self.edges:
            adj[u].append((v, k))
            adj[v].append((u, k))
        return adj

    @cached_property
    def _depths(self) -> dict[int, int]:
        adj = self._adjacency
        depth = {self.root: 0}
        frontier = [self.root]
        while frontier:
            nxt = []
            for u in frontier:
                for v, _ in adj[u]:
                    if v not in depth:
                        depth[v] = depth[u] + 1
                        nxt.append(v)
            frontier = nxt
        if len(depth) != len(adj):
            raise ValueError("tree is not connected")
        return depth

    @cached_property
    def _by_parity(self) -> tuple[list[int], list[int]]:
        even: list[int] = []
        odd: list[int] = []
        for v, p in sorted(self._depths.items()):
            (odd if p % 2 else even).append(v)
        return even, odd

    @cached_property
    def _root_adjacent(self) -> list[int]:
        return sorted(v for v, _ in self._adjacency[self.root])

    def vertices(self) -> list[int]:
        return list(self._adjacency)

    def adjacency(self) -> dict[int, list[tuple[int, int]]]:
        return self._adjacency

    def depths(self) -> dict[int, int]:
        """Distance from the root; raises ValueError when the tree is not connected."""
        return self._depths

    def odd_vertices(self) -> list[int]:
        return self._by_parity[1]

    def even_vertices(self) -> list[int]:
        return self._by_parity[0]

    def root_adjacent(self) -> list[int]:
        return self._root_adjacent

    def valence(self, v: int) -> int:
        return len(self._adjacency[v])

    def k_s(self, v: int) -> int:
        return sum(k for _, k in self._adjacency[v])

    def k_total(self) -> int:
        return sum(k for _, _, k in self.edges)

    def profile(self, v: int) -> ContactVector:
        """Multiset of adjacent-edge multiplicities as a contact vector."""
        out = ContactVector.zero()
        for _, k in self._adjacency[v]:
            out = out + ContactVector.e(k)
        return out

    def root_edge_multiplicity(self, v: int) -> int:
        for u, k in self._adjacency[v]:
            if u == self.root:
                return k
        raise ValueError(f"vertex {v} is not adjacent to the root")

    # -- decorations -------------------------------------------------------

    @cached_property
    def _genus_map(self) -> dict[int, int]:
        return dict(self.genus)

    @cached_property
    def _sign_map(self) -> dict[int, str]:
        return dict(self.signs)

    @cached_property
    def _f_map(self) -> dict[int, int]:
        return dict(self.f_sizes)

    def g(self, v: int) -> int:
        return self._genus_map[v]

    def sign(self, v: int):
        return self._sign_map.get(v)

    def f_size(self, v: int) -> int:
        return self._f_map[v]

    def plus_vertices(self) -> list[int]:
        return [v for v, s in self.signs if s == PLUS]

    def minus_vertices(self) -> list[int]:
        return [v for v, s in self.signs if s == MINUS]

    def is_plus(self, v: int) -> bool:
        return self._sign_map.get(v) == PLUS

    def bivalent_connectors(self) -> list[int]:
        return [v for v in self.even_vertices() if v != self.root and self.valence(v) == 2]

    def root_profiles(self) -> tuple[ContactVector, ContactVector]:
        """(alpha_minus, beta_plus): root-edge multiplicities toward the minus
        and plus parts of the partition."""
        alpha = ContactVector.zero()
        beta = ContactVector.zero()
        for v, k in self._adjacency[self.root]:
            if self.is_plus(v):
                beta = beta + ContactVector.e(k)
            else:
                alpha = alpha + ContactVector.e(k)
        return alpha, beta

    def sign_factor(self) -> int:
        """Global sign of the tree's contribution: (-1)^(#even vertices + 1)
        for the surface families (each even component adds one real double
        point to the glued curve), +1 in the three-spherical family."""
        if self.family is TreeFamily.THREE_SPHERICAL:
            return 1
        return -1 if len(self.even_vertices()) % 2 == 0 else 1

    # -- validation --------------------------------------------------------

    def validate(self) -> list[str]:
        """Return the list of violated constraints (empty for a valid tree)."""
        try:
            self.depths()
        except ValueError as exc:
            return [str(exc)]
        problems: list[str] = []
        if len(self.edges) != len(self._adjacency) - 1:
            problems.append("edge count is not vertex count minus one")
        if any(k < 1 for _, _, k in self.edges):
            problems.append("edge multiplicities must be >= 1")

        odd = self.odd_vertices()
        if set(self._genus_map) != set(odd) or set(self._f_map) != set(odd):
            problems.append("genus and pair counts must decorate exactly the odd vertices")
            return problems
        if set(self._sign_map) != set(self.root_adjacent()):
            problems.append("sign partition must cover exactly the root-adjacent vertices")

        rules = self.family.rules
        for v in self.even_vertices():
            if v != self.root and tuple(sorted(k for _, k in self._adjacency[v])) not in rules.even_shapes:
                problems.append(f"even vertex {v} has a shape the {self.family.value} family does not allow")

        # Degree-0 components must be single fibres: a vertex with g = 0 and
        # total contact multiplicity >= 2 would represent a multiple fibre
        # class, which carries no irreducible rational curve.
        for v in odd:
            if self.g(v) == 0 and self.k_s(v) > 1:
                problems.append(f"vertex {v} has degree 0 but contact multiplicity {self.k_s(v)}")

        r_l = minus_part_size(self.family, self.r, self.k_s(self.root), self.valence(self.root))
        if r_l is None:
            problems.append("real-point count outside the root window")
        elif len(self.minus_vertices()) != r_l:
            problems.append("minus part of the partition has the wrong size")

        if rules.genus_total(self.d, self.k_total()) != sum(self._genus_map.values()):
            problems.append("degree equation fails")

        # Per-vertex point counts and their sum.
        try:
            r_x = pair_condition_count(self.family, self.d, self.r)
        except InvalidDegreeRealPair as exc:
            problems.append(str(exc))
            return problems
        for v in odd:
            expect = expected_pair_count(self.family, self.g(v), self.k_s(v), self.valence(v), self.is_plus(v))
            if expect is None or expect != self.f_size(v):
                problems.append(f"pair count at vertex {v} violates the point-count equation")
        if sum(self._f_map.values()) != r_x:
            problems.append("total assigned pairs differ from the pair-condition count")
        return problems


def expected_pair_count(family: TreeFamily, g: int, k_s: int, valence: int, plus: bool):
    """Pair count forced on an odd vertex by the point-count equation.

    Returns None when no non-negative integer solves it.  Plus vertices give
    up one condition to their prescribed asymptotic.
    """
    points = family.rules.point_coefficient * g + k_s
    if family is TreeFamily.THREE_SPHERICAL:
        num = points + 1 - (2 if plus else 0)
        if num < 0 or num % 2:
            return None
        return num // 2
    base = points + valence - 1 - (1 if plus else 0)
    return base if base >= 0 else None


# ---------------------------------------------------------------------------
# canonical forms, automorphisms


def _encode(tree: DecoratedTree, v: int, parent: int, k_in: int, with_signs: bool, with_f: bool):
    if tree.depths()[v] % 2:
        label = (tree.g(v), tree.sign(v) if with_signs else None, tree.f_size(v) if with_f else None)
    else:
        label = None
    children = sorted(
        (_encode(tree, w, v, k, with_signs, with_f) for w, k in tree.adjacency()[v] if w != parent),
        key=repr,
    )
    return (k_in, label, tuple(children))


def canonical_form(tree: DecoratedTree, *, with_signs: bool = True, with_f: bool = True) -> bytes:
    """Isomorphism-invariant encoding (rooted AHU with decorations as labels).

    Two decorated trees are isomorphic iff their encodings agree; relabeling
    vertices never changes the encoding.
    """
    code = (tree.family.value, tree.d, tree.r, _encode(tree, tree.root, -1, 0, with_signs, with_f))
    return repr(code).encode()


def shape_form(tree: DecoratedTree) -> bytes:
    """Encoding of the underlying weighted tree with its degree decoration only."""
    return canonical_form(tree, with_signs=False, with_f=False)


def automorphisms(tree: DecoratedTree, *, with_signs: bool = True, with_f: bool = True) -> list[dict[int, int]]:
    """All root-fixing automorphisms preserving the selected decorations."""
    adj = tree.adjacency()
    enc_cache: dict[tuple[int, int], object] = {}

    def enc(v, parent, k_in):
        key = (v, parent)
        if key not in enc_cache:
            enc_cache[key] = _encode(tree, v, parent, k_in, with_signs, with_f)
        return enc_cache[key]

    def extend(v, w, pv, pw, mapping):
        # map subtree rooted at v (parent pv) onto subtree at w (parent pw)
        mapping[v] = w
        cv = [(x, k) for x, k in adj[v] if x != pv]
        cw = [(x, k) for x, k in adj[w] if x != pw]
        groups: dict[object, list[int]] = {}
        for x, k in cw:
            groups.setdefault(enc(x, w, k), []).append(x)
        out = [mapping]
        for x, k in cv:
            code = enc(x, v, k)
            if code not in groups:
                return []
            new_out = []
            for m in out:
                taken = set(m.values())
                for y in groups[code]:
                    if y in taken:
                        continue
                    for m2 in extend(x, y, v, w, dict(m)):
                        new_out.append(m2)
            out = new_out
            if not out:
                return []
        return out

    return extend(tree.root, tree.root, -1, -1, {})


# ---------------------------------------------------------------------------
# multiplicity and its factors


def m1_minus(tree: DecoratedTree) -> int:
    """Product over minus vertices of the count of their edges matching the
    root-edge multiplicity (ways to pick the prescribed orbit of the root)."""
    out = 1
    for v in tree.minus_vertices():
        k_root = tree.root_edge_multiplicity(v)
        out *= sum(1 for _, k in tree.adjacency()[v] if k == k_root)
    return out


def m1_plus(tree: DecoratedTree) -> int:
    """Number of injections from plus vertices with assigned pairs into the
    plus root edges, matching multiplicities (1 for an empty source): the
    product over k of perm(t_k, s_k), for t_k plus root edges of multiplicity
    k of which s_k lead to vertices holding pairs."""
    targets = Counter(tree.root_edge_multiplicity(v) for v in tree.plus_vertices())
    sources = Counter(tree.root_edge_multiplicity(v) for v in tree.plus_vertices() if tree.f_size(v) > 0)
    return math.prod(math.perm(targets[k], s) for k, s in sources.items())


def m2_reconnection(tree: DecoratedTree) -> int:
    """Ways to re-pair the half-edges across the removed simple connectors so
    that the result is a tree isomorphic to the original (projective family).

    Computed by brute force over perfect matchings: the trees in play never
    have more than a handful of connectors.
    """
    if tree.family is not TreeFamily.PROJECTIVE:
        raise ValueError("reconnection count is defined for projective trees only")
    connectors = tree.bivalent_connectors()
    if not connectors:
        return 1
    endpoints: list[int] = []
    for c in connectors:
        for w, _ in tree.adjacency()[c]:
            endpoints.append(w)
    kept = [e for e in tree.edges if e[0] not in connectors and e[1] not in connectors]
    target = canonical_form(tree)
    fresh = max(tree.vertices()) + 1

    def matchings(slots):
        if not slots:
            yield []
            return
        first = slots[0]
        for j in range(1, len(slots)):
            rest = slots[1:j] + slots[j + 1:]
            for m in matchings(rest):
                yield [(first, slots[j])] + m

    total = 0
    for pairing in matchings(list(range(len(endpoints)))):
        edges = list(kept)
        nid = fresh
        for a, b in pairing:
            edges.append((endpoints[a], nid, 1))
            edges.append((endpoints[b], nid, 1))
            nid += 1
        # acyclicity: |edges| is right by construction, so connectivity suffices
        candidate = DecoratedTree.build(
            tree.family, tree.d, tree.r, tree.root, edges, tree.genus, tree.signs, tree.f_sizes
        )
        try:
            candidate.depths()
        except ValueError:
            continue
        if canonical_form(candidate) == target:
            total += 1
    return total


def multiplicity(tree: DecoratedTree) -> int:
    """Gluing multiplicity of the tree (without the pair-assignment count)."""
    plus = set(tree.plus_vertices())
    exponent = 0
    for v in tree.odd_vertices():
        f = tree.f_size(v)
        exponent += f if v in plus else max(f - 1, 0)
    factors = math.prod(k for _, _, k in tree.edges)
    if tree.family is TreeFamily.PROJECTIVE:
        exponent += len(tree.bivalent_connectors())
        return (1 << exponent) * m1_plus(tree) * m1_minus(tree) * m2_reconnection(tree) * factors
    if tree.family is TreeFamily.TWO_SPHERICAL:
        exponent += len(tree.even_vertices()) - 1
        return (1 << exponent) * m1_plus(tree) * m1_minus(tree) * factors
    return (1 << exponent) * m1_plus(tree) * factors


def assignment_count(tree: DecoratedTree, r_x: int) -> int:
    """Number of isomorphism classes of pair assignments with the tree's
    pair-count profile f.

    Assignments are functions from odd vertices to disjoint subsets of the
    r_x conjugate pairs, identified under the automorphisms that preserve
    degree and sign decorations.  The class of an assignment with profile f
    meets those assignments in one orbit of H, the automorphisms that also
    preserve f, and H/K acts freely on that orbit, K being the subgroup that
    fixes every vertex holding pairs.  So the count is
    ``multinomial(r_x; f) * |K| / |H|``.  Both orders come from one AHU pass:
    the product over vertices of c! for every c children with identical
    codes, where K's codes give each vertex holding pairs a label of its own.
    """
    fmap = dict(tree.f_sizes)
    if sum(fmap.values()) != r_x:
        raise ValueError("pair counts do not sum to the pair-condition count")
    multinomial = math.factorial(r_x) // math.prod(math.factorial(f) for f in fmap.values())
    adj = tree.adjacency()
    orders = [1, 1]  # |H|, |K|

    def codes(v, parent, k_in):
        children = [codes(w, v, k) for w, k in adj[v] if w != parent]
        label = (tree.g(v), tree.sign(v), fmap[v]) if v in fmap else None
        out = []
        for i, column in enumerate(zip(*children) if children else ((), ())):
            counts = Counter(column)
            orders[i] *= math.prod(math.factorial(c) for c in counts.values())
            pinned = label + (v,) if i and fmap.get(v) else label
            out.append((k_in, pinned, frozenset(counts.items())))
        return out

    codes(tree.root, -1, 0)
    h, k = orders
    if multinomial * k % h:
        raise ValueError(f"[H:K] = {h // k} does not divide the multinomial {multinomial}")
    return multinomial * k // h


# ---------------------------------------------------------------------------
# enumeration


@dataclass(frozen=True)
class TreeWithCount:
    tree: DecoratedTree
    assignment_count: int

    @property
    def multiplicity(self) -> int:
        return multiplicity(self.tree)


@dataclass(frozen=True)
class TreeClass:
    """All decorated variants sharing one underlying weighted shape with its
    degree decoration.  The per-(d, r) class counts quoted in the acceptance
    suite are counts of these classes; a class can carry several sign/pair
    decorations (each a separate summand of the invariant)."""

    shape_key: bytes
    variants: tuple[TreeWithCount, ...]


def _decorate(family, d, r, edges, gmap, runs):
    """Attach one sign partition per isomorphism class (pair counts are then
    forced): each run of identical root subtrees gets a minus count, taken
    by its first children, and the counts sum to the root window's r_L."""
    base = DecoratedTree.build(family, d, r, 0, edges, gmap, {}, {v: 0 for v in gmap})
    r_l = minus_part_size(family, r, base.k_s(0), base.valence(0))
    if r_l is None:
        return
    for minus_counts in itertools.product(*(range(len(run) + 1) for run in runs)):
        if sum(minus_counts) != r_l:
            continue
        signs = {v: MINUS if i < m else PLUS for run, m in zip(runs, minus_counts) for i, v in enumerate(run)}
        plus = {v for v, s in signs.items() if s == PLUS}
        fmap = {v: expected_pair_count(family, g, base.k_s(v), base.valence(v), v in plus) for v, g in gmap.items()}
        if None in fmap.values():
            continue
        tree = DecoratedTree.build(family, d, r, 0, edges, gmap, signs, fmap)
        if not tree.validate():
            yield tree


def _forests(rules: FamilyRules, budget: int, via_connector: bool, items=None, start: int = 0):
    """Every multiset of odd subtrees whose costs sum to ``budget``, once, as
    a non-decreasing tuple.  Root children take any edge multiplicity; a
    connector child enters on a simple edge and also pays for the
    connector's upper simple edge."""
    if budget == 0:
        yield ()
        return
    if items is None and via_connector:
        top = budget - rules.scale if rules.connectors else 0
        items = [(rules.scale + c, t) for c in range(1, top + 1) for t in _odd_subtrees(rules, c, 1)]
    elif items is None:
        items = [(c, t) for c in range(1, budget + 1) for k in range(1, c // rules.scale + 1) for t in _odd_subtrees(rules, c, k)]
    for j in range(start, len(items)):
        cost, subtree = items[j]
        if cost <= budget:
            for rest in _forests(rules, budget - cost, via_connector, items, j):
                yield (subtree,) + rest


def _odd_subtrees(rules: FamilyRules, cost: int, k_in: int):
    """Every odd subtree entered by an edge of multiplicity k_in whose share
    ``scale * k + genus_coefficient * g`` of the degree equation is ``cost``,
    as (k_in, g, pendant count, connector children).  A g = 0 vertex is a
    leaf on a simple edge: :meth:`DecoratedTree.validate` rejects any other
    (a multiple fibre class)."""
    rest = cost - rules.scale * k_in
    if rest == 0 and k_in == 1:
        yield (1, 0, 0, ())
    step = rules.scale * rules.pendant
    for g in range(1, rest // rules.genus_coefficient + 1):
        left = rest - rules.genus_coefficient * g
        for pendants in range(left // step + 1 if step else 1):
            for children in _forests(rules, left - step * pendants, True):
                yield (k_in, g, pendants, children)


def _candidate_graphs(family: TreeFamily, d: int):
    """Yield (edges, genus map, runs) once for every candidate shape of
    degree d: a root 0 carrying a multiset of odd subtrees whose costs sum to
    d.  ``runs`` lists the root children, grouped into runs of identical
    subtrees (consecutive in the non-decreasing forest)."""
    rules = family.rules

    def attach(parent, subtree, edges, gmap):
        k_in, g, pendants, children = subtree
        v = len(edges) + 1
        edges.append((parent, v, k_in))
        gmap[v] = g
        edges.extend((v, v + 1 + i, rules.pendant) for i in range(pendants))
        for child in children:
            edges.append((v, len(edges) + 1, 1))
            attach(len(edges), child, edges, gmap)  # below the connector just added
        return v

    for forest in _forests(rules, d, False):
        edges: list[tuple[int, int, int]] = []
        gmap: dict[int, int] = {}
        runs = [[attach(0, subtree, edges, gmap) for subtree in run] for _, run in itertools.groupby(forest)]
        yield edges, gmap, runs


def enumerate_decorated_trees(family: TreeFamily, d: int, r: int) -> list[TreeWithCount]:
    """All isomorphism classes of fully decorated trees for (family, d, r),
    sorted by canonical form; each class is generated exactly once."""
    r_x = pair_condition_count(family, d, r)
    trees = sorted(
        (tree for shape in _candidate_graphs(family, d) for tree in _decorate(family, d, r, *shape)),
        key=canonical_form,
    )
    return [TreeWithCount(tree=tree, assignment_count=assignment_count(tree, r_x)) for tree in trees]


def enumerate_trees(family: TreeFamily, d: int, r: int) -> list[TreeClass]:
    """Decorated trees for (family, d, r), grouped into shape classes.

    Deterministic: classes are sorted by shape encoding, variants by full
    canonical form (the order they arrive in).
    """
    groups: dict[bytes, list[TreeWithCount]] = {}
    for twc in enumerate_decorated_trees(family, d, r):
        groups.setdefault(shape_form(twc.tree), []).append(twc)
    return [TreeClass(shape_key=key, variants=tuple(groups[key])) for key in sorted(groups)]


# ---------------------------------------------------------------------------
# JSON dump


def _canonical_order(tree: DecoratedTree) -> list[int]:
    order: list[int] = []

    def walk(v, parent):
        order.append(v)
        children = sorted(
            ((w, k) for w, k in tree.adjacency()[v] if w != parent),
            key=lambda wk: repr(_encode(tree, wk[0], v, wk[1], True, True)),
        )
        for w, _ in children:
            walk(w, v)

    walk(tree.root, -1)
    return order


def tree_to_json_dict(twc: TreeWithCount) -> dict:
    """Stable JSON form of a decorated tree with its counts."""
    tree = twc.tree
    order = _canonical_order(tree)
    index = {v: i for i, v in enumerate(order)}
    depth = tree.depths()
    odd = set(tree.odd_vertices())
    vertices = []
    for v in order:
        vertices.append(
            {
                "id": index[v],
                "parity": "odd" if v in odd else "even",
                "sign": {PLUS: "plus", MINUS: "minus"}.get(tree.sign(v)),
                "g": tree.g(v) if v in odd else None,
                "f_size": tree.f_size(v) if v in odd else None,
            }
        )
    edges = sorted(
        ({"u": min(index[u], index[v]), "v": max(index[u], index[v]), "k": k} for u, v, k in tree.edges),
        key=lambda e: (e["u"], e["v"]),
    )
    return {
        "family": tree.family.value,
        "d": tree.d,
        "r": tree.r,
        "vertices": vertices,
        "edges": edges,
        "assignment_count": twc.assignment_count,
        "multiplicity": twc.multiplicity,
    }


def trees_to_json(classes: list[TreeClass]) -> str:
    payload = [tree_to_json_dict(v) for cls in classes for v in cls.variants]
    return json.dumps(payload, indent=2, sort_keys=True)
