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

A tree has two parts.  Its :class:`Shape` holds the components and the
orbits they share, with a genus-like degree g >= 0 on every odd vertex; the
structure derived from it is computed once, and every tree decorated from a
shape shares it, as it shares :attr:`Shape.problems`, the family rules
that do not depend on r (even-vertex shapes, degree-0 vertices as single
fibres, the degree equation).  A :class:`DecoratedTree` adds r and the
decorations: root-adjacent odd vertices are split into a plus/minus
partition recording whether their asymptotic orbit stays free or is
prescribed by the root component.  Each odd vertex's count of assigned
conjugate point pairs is derived from the partition by the point-count
equation.  Odd vertices at distance >= 3 behave like minus vertices in
every formula.  :meth:`DecoratedTree.validate` adds the rules on r and the
signs: partition cover, root window, minus-part size and pair counts.

Enumeration generates the candidate forests of each (family, d) once per
process, as light tuples that carry their root window (the window needs only
the root edges' multiplicities), and sorts them once by the degree-labelled
AHU code their shape will have, read off the codes each subtree got when it
was generated.  The odd subtrees do not depend on d: each family generates
them once per process, into a store that every degree reads.  A (family, d)
with more candidate subtrees and forests than :data:`CANDIDATE_BOUND`
raises EnumerationTooLarge.
:func:`tree_classes` walks the sorted candidates in r's window one class at
a time: a forest becomes a :class:`Shape`, at most once per process, and its
trees are decorated and validated only when its class is reached.  So chi,
which stops at the first tree whose key is outside the tables, builds no
shape after it.  The shape is made straight from one depth-first walk
that attaches the forest's subtrees (:func:`_build`), which numbers the
vertices as it goes and so knows each one's parent and children; it is the
shape that the checked constructor would give for the same edges, without
its search.

The counting rules are the same for every family; they read the constants
of its :class:`TreeFamily` member and the dimension n of its Lagrangian:

* point count: an odd vertex of degree g, total contact k_s and valence v
  holds the f >= 0 pairs with (n - 1)(f - v + [plus]) = point_coefficient * g
  + k_s - 1;
* sign: (-1)^(#even vertices + 1);
* multiplicity: 2^(sum over odd vertices of f if plus, else max(f - 1, 0),
  plus the even non-root vertices whose edges are all simple), times
  m1_plus * m1_minus * m2 and the product of the edge multiplicities.
  m2, the re-pairings at the simple connectors that give back the tree, is
  prod s_v! * |Aut F| / |Aut T| by orbit-stabilizer on the forest F left by
  cutting them (:func:`m2_reconnection`).
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from enum import Enum
from functools import cache

from .contact import GeometryKind, _cached, _counts, _point_count, _Record
from .errors import EnumerationTooLarge, InadmissiblePair

__all__ = [
    "TreeFamily",
    "FAMILY_OF",
    "Shape",
    "DecoratedTree",
    "TreeWithCount",
    "TreeClass",
    "tree_classes",
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
    """The three tree families.  Each member carries its geometry and the
    five constants that tell the families apart:

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

    # value, geometry, scale, genus_coefficient, point_coefficient, pendant, connectors
    PROJECTIVE = ("projective", GeometryKind.PROJECTIVE_PLANE, 1, 4, 6, 2, True)
    TWO_SPHERICAL = ("two-spherical", GeometryKind.ELLIPSOID_QUADRIC2, 1, 2, 4, 1, False)
    THREE_SPHERICAL = ("three-spherical", GeometryKind.ELLIPSOID_QUADRIC3, 2, 2, 3, 0, False)

    def __new__(cls, value, geometry, scale, genus_coefficient, point_coefficient, pendant, connectors):
        member = object.__new__(cls)
        member._value_ = value
        member.geometry = geometry
        member.scale = scale
        member.genus_coefficient = genus_coefficient
        member.point_coefficient = point_coefficient
        member.pendant = pendant
        member.connectors = connectors
        return member

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

    def real_point_counts(self, d: int) -> range:
        """The r that leave an integer r_X >= 0 in (n - 1)(r + 2 r_X) = c1.d +
        n - 3, n the dimension of the Lagrangian: r_X = (counts[-1] - r) / 2.
        Empty when the right-hand side is not a multiple of n - 1, and for
        d < 1 (alone, the equation would admit r = 0 over the 3-quadric at
        d = 0)."""
        n = self.geometry.lagrangian.dimension
        total, rem = divmod(self.geometry.c1 * d + n - 3, n - 1)
        return range(0) if rem or d < 1 else range(total % 2, total + 1, 2)


FAMILY_OF: dict[GeometryKind, TreeFamily] = {family.geometry: family for family in TreeFamily}


@cache
def pair_condition_count(family: TreeFamily, d: int, r: int) -> int:
    """Number r_X of conjugate point pairs imposed together with r real points;
    unless r is in :meth:`TreeFamily.real_point_counts`, raises the
    InadmissiblePair that ``assembly.check_admissible`` raises.  Cached per
    (family, d, r): :meth:`DecoratedTree.validate` asks it for every tree."""
    counts = family.real_point_counts(d)
    if r not in counts:
        raise InadmissiblePair.of(family.geometry, d, r)
    return (counts[-1] - r) // 2


def minus_part_size(top: int, r: int, v0: int) -> int | None:
    """Size r_L of the minus part of the root partition, or None (root window).

    The root has v0 edges, and ``top`` real points make the root component
    rigid when all of them are plus (free): :attr:`Shape.window_top`.
    Each of the r_L minus (prescribed) edges lowers that count by 2.
    """
    r_l, odd = divmod(top - r, 2)
    return None if odd or not 0 <= r_l <= v0 else r_l


class Shape:
    """The undecorated part of a splitting tree: the components of the limit
    and the orbits they share, with each odd vertex's degree g.

    ``edges`` are sorted (parent, child, multiplicity) triples and ``genus``
    maps each odd vertex to g, in vertex order; vertex ids are arbitrary ints.
    The constructor, for hand-written trees, raises ValueError unless the
    edges form a tree with multiplicities >= 1 whose odd vertices are exactly
    the keys of ``genus``; the enumeration makes its shapes in
    :func:`_build` from what its walk knows.  Both compute the structure
    once, in :meth:`_finish`, and give the same fields in the same order:

    * ``adjacency``: vertex -> ((neighbour, multiplicity), ...), in vertex
      order;
    * ``even_vertices``, ``odd_vertices`` (at even and odd distance from the
      root): sorted tuples;
    * ``root_edges``: root-adjacent vertex -> multiplicity of its root edge,
      in vertex order;
    * ``k_s``: vertex -> total multiplicity of its edges;
    * ``bottom_up``: (vertex, multiplicity of the edge from its parent,
      children), every vertex after its children;
    * ``window_top``: real-point count that makes the root component rigid
      when every root edge is free, :func:`~welschinger.contact.f_point_count`
      of the root profile (None when the root has no edge); it reads only
      the root edges' count and total multiplicity, as the enumeration's
      candidates do before any shape is built.

    A shape is shared by all its decorated trees; its dicts must not be
    modified.
    """

    def __init__(self, family: TreeFamily, d: int, root: int, edges, genus):
        self.family, self.d, self.root = family, d, root
        self.edges = tuple(sorted((int(u), int(v), int(k)) for u, v, k in edges))
        self.genus = dict(sorted((int(v), int(g)) for v, g in dict(genus).items()))
        if any(k < 1 for _, _, k in self.edges):
            raise ValueError("edge multiplicities must be >= 1")
        verts = {root}
        for u, v, _ in self.edges:
            verts.update((u, v))
        nbrs: dict[int, list[tuple[int, int]]] = {v: [] for v in sorted(verts)}
        for u, v, k in self.edges:
            nbrs[u].append((v, k))
            nbrs[v].append((u, k))
        adj = {v: tuple(vs) for v, vs in nbrs.items()}
        depths = {root: 0}
        children: dict[int, list[tuple[int, int]]] = {}
        queue = [root]
        for v in queue:  # the queue grows while it is read: breadth-first
            kids = children[v] = []
            for w, k in adj[v]:
                if w not in depths:
                    depths[w] = depths[v] + 1
                    kids.append((w, k))
                    queue.append(w)
        if len(depths) != len(adj):
            raise ValueError("tree is not connected")
        if len(self.edges) != len(adj) - 1:
            raise ValueError("edge count is not vertex count minus one")
        if tuple(self.genus) != tuple(v for v in adj if depths[v] % 2):
            raise ValueError("genus must decorate exactly the odd vertices")
        self._finish(adj, children)

    def _finish(self, adjacency, children) -> None:
        """The structure both constructors share, from the vertex-ordered
        adjacency and each vertex's (child, multiplicity) pairs in adjacency
        order; the odd vertices are the keys of ``genus``."""
        # The structure is kept in tuples: it is shared and never modified,
        # and the garbage collector stops scanning tuples of ints (with lists,
        # building the 19,852 shapes of plane degree 26 took twice as long).
        genus, root = self.genus, self.root
        self.adjacency = adjacency
        self.even_vertices = tuple([v for v in adjacency if v not in genus])
        self.odd_vertices = tuple(genus)
        self.root_edges = root_edges = dict(sorted(adjacency[root]))
        self.k_s = k_s = dict.fromkeys(adjacency, 0)
        for u, v, k in self.edges:
            k_s[u] += k
            k_s[v] += k
        top_down = []
        queue = [(root, 0)]
        for v, k_in in queue:  # breadth-first, as the queue grows
            kids = children[v]
            queue += kids
            top_down.append((v, k_in, tuple([w for w, _ in kids]) if kids else ()))
        self.bottom_up = tuple(reversed(top_down))
        lagrangian = self.family.geometry.lagrangian
        self.window_top = _point_count(lagrangian, len(root_edges), sum(root_edges.values())) if root_edges else None

    @_cached
    def problems(self) -> tuple[str, ...]:
        """The family rules that do not depend on r that the shape breaks,
        checked once per shape (empty for a valid shape)."""
        family, adj, genus, k_s = self.family, self.adjacency, self.genus, self.k_s
        even_shapes = family.even_shapes()
        problems = []
        for v in self.even_vertices:
            if v != self.root and tuple(sorted([k for _, k in adj[v]])) not in even_shapes:
                problems.append(f"even vertex {v} has a shape the {self.family.value} family does not allow")
        # Degree-0 components must be single fibres: a vertex with g = 0 and
        # total contact multiplicity >= 2 would represent a multiple fibre
        # class, which carries no irreducible rational curve.
        for v, g in genus.items():
            if g == 0 and k_s[v] > 1:
                problems.append(f"vertex {v} has degree 0 but contact multiplicity {k_s[v]}")
        if family.genus_total(self.d, sum(k_s.values()) // 2) != sum(genus.values()):  # k_s counts each edge twice
            problems.append("degree equation fails")
        return tuple(problems)


class DecoratedTree(_Record):
    """Immutable decorated tree: a :class:`Shape` with r and its sign partition.

    ``signs`` is a sorted (vertex, sign) tuple over the root-adjacent odd
    vertices; the pair counts follow from it (:meth:`f_size`).  Equality
    compares the shape by identity: a tree built again from the same data, a
    pickled copy or a deep copy is unequal to the original.  Isomorphism is
    decided by :func:`canonical_form`.  The maps and encodings derived from
    these fields are computed once per instance, on first use.
    """

    def __init__(self, shape: Shape, r: int, signs: tuple[tuple[int, str], ...]):
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "signs", signs)

    @classmethod
    def build(cls, family, d, r, root, edges, genus, signs) -> "DecoratedTree":
        """A tree from vertex-keyed data; raises ValueError (see :class:`Shape`)
        when edges and genus do not describe a tree."""
        return cls(Shape(family, d, root, edges, genus), r, tuple(sorted((int(v), s) for v, s in dict(signs).items())))

    @_cached
    def _sign_map(self) -> dict[int, str]:
        return dict(self.signs)

    @_cached
    def _f_map(self) -> dict[int, int | None]:
        """Pair count of every odd vertex (:func:`expected_pair_count`), None
        where no integer solves its point-count equation."""
        shape = self.shape
        adj, k_s = shape.adjacency, shape.k_s
        return {v: expected_pair_count(shape.family, g, k_s[v], len(adj[v]), self.is_plus(v)) for v, g in shape.genus.items()}

    @_cached
    def codes(self) -> dict[int, str]:
        """AHU code of every vertex's subtree with all decorations."""
        return _codes(self.shape, self._sign_map, self._f_map)

    @_cached
    def _aut_orders(self) -> tuple[int, int]:
        """(|H|, |K|) of :func:`assignment_count`, from one bottom-up walk:
        H = Aut T keeps every decoration, and K, its subgroup fixing every
        vertex that holds pairs, permutes only twin subtrees holding none."""
        codes, f_map = self.codes, self._f_map
        holds: dict[int, bool] = {}
        h = k = 1
        for v, _, children in self.shape.bottom_up:
            if len(children) > 1:  # a lone child has no twin
                h *= _twins([codes[w] for w in children])
                k *= _twins([codes[w] for w in children if not holds[w]])
            holds[v] = f_map.get(v, 0) > 0 or any([holds[w] for w in children])
        return h, k

    @_cached
    def _canonical(self) -> bytes:
        return _form(self.shape, self.r, self.codes[self.shape.root])

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

    @_cached
    def root_counts(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The counts of (alpha_minus, beta_plus): root-edge multiplicities
        toward the minus and plus parts of the partition, computed once."""
        edges = self.shape.root_edges.items()
        return (
            _counts([k for v, k in edges if not self.is_plus(v)]),
            _counts([k for v, k in edges if self.is_plus(v)]),
        )

    def sign_factor(self) -> int:
        """Global sign of the tree's contribution, (-1)^(#even vertices + 1):
        each even component adds one real double point to the glued curve
        (a three-spherical tree has one even vertex, its root)."""
        return -1 if len(self.shape.even_vertices) % 2 == 0 else 1

    def validate(self) -> list[str]:
        """The shape's :attr:`Shape.problems`, then the violated rules on r and
        the decorations (empty for a valid tree).  Raises InadmissiblePair
        when (d, r) is outside the family's domain."""
        shape = self.shape
        problems = list(shape.problems)
        if self._sign_map.keys() != shape.root_edges.keys():
            problems.append("sign partition must cover exactly the root-adjacent vertices")

        top = shape.window_top
        r_l = None if top is None else minus_part_size(top, self.r, len(shape.root_edges))
        if r_l is None:
            problems.append("real-point count outside the root window")
        elif len(self.minus_vertices()) != r_l:
            problems.append("minus part of the partition has the wrong size")

        # Per-vertex point counts and their sum.
        r_x = pair_condition_count(shape.family, shape.d, self.r)
        unsolved = [v for v, f in self._f_map.items() if f is None]
        problems += [f"no pair count at vertex {v} solves the point-count equation" for v in unsolved]
        if not unsolved and sum(self._f_map.values()) != r_x:
            problems.append("total assigned pairs differ from the pair-condition count")
        return problems


def expected_pair_count(family: TreeFamily, g: int, k_s: int, valence: int, plus: bool):
    """Pair count f forced on an odd vertex by the point-count equation
    ``(n - 1)(f - valence + plus) = point_coefficient * g + k_s - 1``, n the
    dimension of the Lagrangian: a plus vertex gives up one condition to its
    prescribed asymptotic.  None when no integer f >= 0 solves it."""
    q, rem = divmod(family.point_coefficient * g + k_s - 1, family.geometry.lagrangian.dimension - 1)
    f = q + valence - plus
    return None if rem or f < 0 else f


# ---------------------------------------------------------------------------
# canonical forms, automorphisms


def _code(k_in: int, label, kids: list[str]) -> str:
    """AHU code of a vertex entered by an edge of multiplicity k_in: the
    ``repr`` of the nested tuple ``(k_in, label, sorted child codes)``."""
    kids.sort()
    return f"({k_in}, {label}, ({', '.join(kids)}{',' if len(kids) == 1 else ''}))"


def _codes(shape: Shape, signs: dict[int, str], f_sizes: dict[int, int]) -> dict[int, str]:
    """Rooted AHU code of every vertex's subtree, built bottom-up: the label
    of an odd vertex is ``(g, sign, f)`` (sign and f None where the given
    maps have no entry), that of an even vertex None."""
    genus = shape.genus
    codes: dict[int, str] = {}
    for v, k_in, children in shape.bottom_up:
        label = f"({genus[v]}, {signs.get(v)!r}, {f_sizes.get(v)})" if v in genus else None
        codes[v] = _code(k_in, label, [codes[w] for w in children])
    return codes


def _form(shape: Shape, r: int, body: str) -> bytes:
    # _value_ is the plain attribute TreeFamily.__new__ sets; .value is a descriptor call
    return f"({shape.family._value_!r}, {shape.d}, {r}, {body})".encode()


def canonical_form(tree: DecoratedTree) -> bytes:
    """Isomorphism-invariant encoding (rooted AHU with decorations as labels).

    Two decorated trees are isomorphic iff their encodings agree; relabeling
    vertices never changes the encoding.  Computed once per tree.
    """
    return tree._canonical


def automorphisms(tree: DecoratedTree) -> list[dict[int, int]]:
    """All root-fixing automorphisms preserving the signs."""
    adj = tree.shape.adjacency
    codes = _codes(tree.shape, tree._sign_map, {})

    def extend(v, w, pv, pw, mapping):
        # map subtree rooted at v (parent pv) onto subtree at w (parent pw)
        mapping[v] = w
        cv = [x for x, _ in adj[v] if x != pv]
        cw = [x for x, _ in adj[w] if x != pw]
        groups: dict[str, list[int]] = {}
        for x in cw:
            groups.setdefault(codes[x], []).append(x)
        out = [mapping]
        for x in cv:
            code = codes[x]
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

    return extend(tree.shape.root, tree.shape.root, -1, -1, {})


# ---------------------------------------------------------------------------
# multiplicity and its factors


def _twins(codes: list[str]) -> int:
    """Product of c! over every c equal codes among sibling codes: the
    automorphisms of a rooted tree that only permute those siblings' subtrees."""
    seen: dict[str, int] = {}
    for code in codes:
        seen[code] = seen.get(code, 0) + 1
    return math.prod(map(math.factorial, seen.values()))


def m1_minus(tree: DecoratedTree) -> int:
    """Product over minus vertices of the count of their edges matching the
    root-edge multiplicity (ways to pick the prescribed orbit of the root)."""
    shape = tree.shape
    out = 1
    for v in tree.minus_vertices():
        k_root = shape.root_edges[v]
        out *= sum(1 for _, k in shape.adjacency[v] if k == k_root)
    return out


def m1_plus(tree: DecoratedTree) -> int:
    """Number of injections from plus vertices with assigned pairs into the
    plus root edges, matching multiplicities (1 for an empty source): the
    product over k of perm(t_k, s_k), for t_k plus root edges of multiplicity
    k of which s_k lead to vertices holding pairs."""
    k_root = tree.shape.root_edges
    targets, sources = {}, {}
    for v in tree.plus_vertices():
        k = k_root[v]
        targets[k] = targets.get(k, 0) + 1
        if tree.f_size(v) > 0:
            sources[k] = sources.get(k, 0) + 1
    return math.prod(math.perm(targets[k], s) for k, s in sources.items())


def m2_reconnection(tree: DecoratedTree) -> int:
    """Ways to re-pair the half-edges across the removed simple connectors so
    that the result is a tree isomorphic to the original (1 without
    connectors, so in every family but the projective one).

    Cutting the connectors leaves a forest F whose odd vertex v held s_v of
    their half-edges.  An isomorphism onto the tree maps connectors to
    connectors, so it restricts to an automorphism of F keeping every s_v,
    and the tree's own automorphisms are the stabilizer of its pairing.  By
    orbit-stabilizer, ``m2 = prod s_v! * |Aut F| / |Aut T|``: each of the
    |Aut F| / |Aut T| vertex pairings comes from prod s_v! half-edge pairings.
    """
    shape = tree.shape
    adj = shape.adjacency
    connectors = {v for v in shape.even_vertices if v != shape.root and len(adj[v]) == 2}
    if not connectors:
        return 1
    slots = {v: sum(w in connectors for w, _ in adj[v]) for v in shape.odd_vertices}
    codes: dict[int, str] = {}
    below = []
    aut_f = 1
    for v, k_in, children in shape.bottom_up:
        if v in connectors:  # the piece below is a root of F, a sibling of the others
            below.append(codes[children[0]])
            continue
        kids = [codes[w] for w in children if w not in connectors]
        aut_f *= _twins(kids)
        label = (shape.genus[v], tree.sign(v), tree.f_size(v), slots[v]) if v in slots else None
        codes[v] = _code(k_in, label, kids)
    aut_f *= _twins(below)
    return math.prod(math.factorial(s) for s in slots.values()) * aut_f // tree._aut_orders[0]


def multiplicity(tree: DecoratedTree) -> int:
    """Gluing multiplicity of the tree (without the pair-assignment count):
    2^(sum over odd vertices of f if plus, else max(f - 1, 0), plus the even
    non-root vertices whose edges are all simple) * m1_plus * m1_minus * m2
    * the product of the edge multiplicities."""
    shape = tree.shape
    adj = shape.adjacency
    exponent = sum(1 for v in shape.even_vertices if v != shape.root and all(k == 1 for _, k in adj[v]))
    for v in shape.odd_vertices:
        f = tree.f_size(v)
        exponent += f if tree.is_plus(v) else max(f - 1, 0)
    factors = math.prod(k for _, _, k in shape.edges)
    return (1 << exponent) * m1_plus(tree) * m1_minus(tree) * m2_reconnection(tree) * factors


def assignment_count(tree: DecoratedTree) -> int:
    """Number of isomorphism classes of pair assignments with the tree's
    pair-count profile f.

    Assignments are functions from odd vertices to disjoint subsets of the
    tree's r_x = sum(f) conjugate pairs, identified under the automorphisms
    that preserve degree and sign decorations.  The class of an assignment with profile f
    meets those assignments in one orbit of H, the automorphisms that also
    preserve f, and H/K acts freely on that orbit, K being the subgroup that
    fixes every vertex holding pairs.  So the count is
    ``multinomial(r_x; f) * |K| / |H|``.  Both orders are products over
    vertices of c! for every c children with identical codes (the tree's
    own): over all children for H, over children whose subtree holds no
    pairs for K.  One bottom-up walk gives both, once per tree, when a count
    first asks (:attr:`DecoratedTree._aut_orders`, which
    :func:`m2_reconnection` also reads).
    """
    fmap = tree._f_map
    r_x = sum(fmap.values())
    multinomial = math.factorial(r_x) // math.prod(math.factorial(f) for f in fmap.values())
    h, k = tree._aut_orders
    if multinomial * k % h:
        raise ValueError(f"[H:K] = {h // k} does not divide the multinomial {multinomial}")
    return multinomial * k // h


# ---------------------------------------------------------------------------
# enumeration


class TreeWithCount(_Record):
    def __init__(self, tree: DecoratedTree):
        object.__setattr__(self, "tree", tree)

    @_cached
    def assignment_count(self) -> int:
        """Pair-assignment classes of the tree, counted on first read."""
        return assignment_count(self.tree)

    @_cached
    def multiplicity(self) -> int:
        """Gluing multiplicity of the tree, computed on first read."""
        return multiplicity(self.tree)


class TreeClass(_Record):
    """All decorated variants sharing one underlying weighted shape with its
    degree decoration.  The per-(d, r) class counts quoted in the acceptance
    suite are counts of these classes; a class can carry several sign/pair
    decorations (each a separate summand of the invariant)."""

    def __init__(self, variants: tuple[TreeWithCount, ...]):
        object.__setattr__(self, "variants", variants)


CANDIDATE_BOUND = 50_000
"""Most odd subtrees plus forests one (family, d) may count (:class:`_Memo`)
before :class:`EnumerationTooLarge`.  Tests, ``verify`` and ``frontier
--max-degree 22`` reach 44,143 (two-spherical d = 22); plane d = 26 makes
25,463, d = 28 56,181.  On a 2-core Xeon, generating them with their codes
from an empty store takes about 0.15-0.2 s and a 24 MB peak for plane
d = 26, and 0.2-0.3 s and 31 MB for two-spherical d = 22.  A miss then
builds one shape; building all 43,317 shapes of two-spherical d = 22 takes
about 3 s more and a 245 MB peak."""


_SUBTREES: dict[TreeFamily, dict[tuple[int, int], list]] = {family: {} for family in TreeFamily}
"""Each family's complete odd-subtree lists, keyed by (cost, k_in): a list
does not depend on d, so one store per process serves every degree."""


class _Memo:
    """One generation run of (family, d) over the family's subtree store,
    with the code of its pendant leaf; :meth:`count` adds up the subtrees of
    every list the run reads, once each, and its forests against the bound,
    whether or not an earlier run stored the lists."""

    def __init__(self, family: TreeFamily, d: int):
        self.family, self.d, self.made = family, d, 0
        self.store = _SUBTREES[family]
        self.pendant = _code(family.pendant, None, [])

    def count(self, n: int) -> None:
        self.made += n
        if self.made > CANDIDATE_BOUND:
            raise EnumerationTooLarge(
                f"({self.family.value}, d={self.d}) has more than {CANDIDATE_BOUND:,} candidate subtrees and "
                "forests, the enumeration bound"
            )


@cache
def _candidates(family: TreeFamily, d: int) -> tuple[tuple, list]:
    """The candidate forests of (family, d), generated once per process since
    they do not depend on r, as tuples (window_top, v0, forest): the root's
    :attr:`Shape.window_top` and edge count, read off the forest.  The run
    reads the stored odd subtrees of each (cost, k_in) that can hold one, in
    increasing cost.  The candidates come sorted, once for every r, by the
    degree-labelled AHU code of their shapes, built from their odd subtrees'
    codes (no two shapes share one); each has a slot in the list, filled
    with its :func:`_build` on first use."""
    lagrangian, scale, least = family.geometry.lagrangian, family.scale, family.genus_coefficient
    memo = _Memo(family, d)
    items = []
    for c in range(scale, d + 1):  # lazily: a huge d stops at the bound
        for k in range(1, 2 if c == scale else (c - least) // scale + 1):  # the g = 0 leaf, or room for g >= 1
            subtrees = _odd_subtrees(memo, c, k)
            memo.count(len(subtrees))
            items += [(c, t) for t in subtrees]
    candidates = []
    for forest in _forests(items, d):
        memo.count(1)
        candidates.append((_point_count(lagrangian, len(forest), sum([t[0] for t in forest])), len(forest), forest))
    candidates.sort(key=lambda c: _code(0, None, [t[4] for t in c[2]]))
    return tuple(candidates), [None] * len(candidates)


def _decorate(r: int, r_l: int, runs, shape: Shape):
    """Attach one sign partition per isomorphism class: each run of
    identical root subtrees gets a minus count, taken by its first children,
    and the counts sum to the root window's r_L.  Each tree is validated; a
    tree that fails is a fault of this generator and raises RuntimeError,
    since dropping it would change chi."""
    for minus_counts in itertools.product(*(range(len(run) + 1) for run in runs)):
        if sum(minus_counts) != r_l:
            continue
        signs = {v: MINUS if i < m else PLUS for run, m in zip(runs, minus_counts) for i, v in enumerate(run)}
        tree = DecoratedTree(shape, r, tuple(sorted(signs.items())))
        if problems := tree.validate():
            raise RuntimeError(f"generated an invalid tree {canonical_form(tree).decode()}: {'; '.join(problems)}")
        yield tree


def _forests(items: list, budget: int, start: int = 0, forest=()):
    """Every multiset of the subtrees in ``items``, (cost, subtree) pairs
    sorted by cost, whose costs sum to ``budget``, once, as a non-decreasing
    tuple after the prefix ``forest``, which each level extends by one."""
    if budget == 0:
        yield forest
        return
    for j in range(start, len(items)):
        cost, subtree = items[j]
        if cost > budget:
            break
        yield from _forests(items, budget - cost, j, forest + (subtree,))


def _odd_subtrees(memo: _Memo, cost: int, k_in: int) -> list:
    """Every odd subtree entered by an edge of multiplicity k_in whose share
    ``scale * k + genus_coefficient * g`` of the degree equation is ``cost``,
    as (k_in, g, pendant count, connector children, code).  The code is the
    AHU code (:func:`_code`) the subtree's vertex has in its shape, built from
    its children's: a pendant is an even leaf on an edge of multiplicity
    ``family.pendant``, and a connector child an even vertex on a simple edge
    above its odd subtree.  A g = 0 vertex is a leaf on a simple edge: any
    other is a multiple fibre class, which :attr:`Shape.problems` reports.  A
    vertex with no integer pair count carries no tree for either sign, so it
    is not generated.  Each list is built once per process, into the
    family's store, and counted by the :func:`_candidates` run that reads it."""
    store = memo.store
    if (cost, k_in) in store:
        return store[cost, k_in]
    family = memo.family
    rest = cost - family.scale * k_in
    out = [(1, 0, 0, (), _code(1, "(0, None, None)", []))] if rest == 0 and k_in == 1 else []
    step = family.scale * family.pendant
    # a vertex with no pendant and no connector has no child: only the largest g can use up the cost
    first = 1 if step or family.connectors else max(1, rest // family.genus_coefficient)
    for g in range(first, rest // family.genus_coefficient + 1):
        left = rest - family.genus_coefficient * g
        label = f"({g}, None, None)"
        top = left - family.scale if family.connectors else 0  # a connector child also pays for its upper edge
        items = [(family.scale + c, t) for c in range(1, top + 1) for t in _odd_subtrees(memo, c, 1)]
        for pendants in range(left // step + 1 if step else 1):
            for children in _forests(items, left - step * pendants):
                k_s, valence = k_in + family.pendant * pendants + len(children), 1 + pendants + len(children)
                if expected_pair_count(family, g, k_s, valence, False) is not None:
                    kids = [memo.pendant] * pendants + [_code(1, None, [child[4]]) for child in children]
                    out.append((k_in, g, pendants, children, _code(k_in, label, kids)))
    store[cost, k_in] = out
    return out


def _build(family: TreeFamily, d: int, forest) -> tuple[tuple, Shape]:
    """The shape of a candidate forest, a root 0 carrying its odd subtrees,
    and ``runs``: the root children grouped into runs of identical subtrees
    (consecutive in the non-decreasing forest).  One depth-first walk
    numbers the vertices as it attaches them, each subtree's as one range
    from its top vertex: an odd vertex, its pendants, then each connector
    just before its odd child.  So every vertex comes after its parent and
    lists it first among its neighbours, then its children in vertex order,
    and the walk hands :meth:`Shape._finish` the adjacency and children
    without the checked constructor's search."""
    pendant = family.pendant
    nbrs: list[list[tuple[int, int]]] = [[]]  # vertex -> its (neighbour, multiplicity) pairs, parent first
    genus: dict[int, int] = {}
    stack = [(0, subtree) for subtree in reversed(forest)]  # (odd parent or the root, subtree)
    while stack:
        parent, (k_in, g, pendants, children, _) = stack.pop()
        if parent:  # an odd parent: the connector between them comes just before the child
            nbrs[parent].append((len(nbrs), 1))
            nbrs.append([(parent, 1)])
            parent = len(nbrs) - 1
        v = len(nbrs)
        nbrs[parent].append((v, k_in))
        genus[v] = g
        if pendants:
            nbrs.append([(parent, k_in)] + [(w, pendant) for w in range(v + 1, v + 1 + pendants)])
            nbrs += [[(v, pendant)] for _ in range(pendants)]
        else:
            nbrs.append([(parent, k_in)])
        if children:
            stack += [(v, child) for child in reversed(children)]
    adjacency = {v: tuple(vs) for v, vs in enumerate(nbrs)}
    children = {v: vs[1:] for v, vs in adjacency.items()}
    children[0] = adjacency[0]
    shape = Shape.__new__(Shape)
    shape.family, shape.d, shape.root, shape.genus = family, d, 0, genus
    shape.edges = tuple([(u, w, k) for u, vs in children.items() for w, k in vs])
    shape._finish(adjacency, children)
    tops = iter(adjacency[0])
    return tuple(tuple(next(tops)[0] for _ in run) for _, run in itertools.groupby(forest)), shape


def tree_classes(family: TreeFamily, d: int, r: int) -> Iterator[TreeClass]:
    """The decorated trees for (family, d, r), one shape class at a time.

    Classes come sorted by their shapes' degree-labelled AHU codes
    (:func:`_codes` with no signs or pair counts), variants by full
    canonical form.  The candidates of (family, d) come from its per-process
    cache in that order, so r only skips those outside its window: a
    candidate's shape is built, at most once per process, and its trees are
    decorated and validated only when its class is reached, and a caller
    that stops at a class builds no shape after it.  Each tree's
    pair-assignment count and multiplicity are computed when first read."""
    pair_condition_count(family, d, r)  # an inadmissible (d, r) raises here
    candidates, built = _candidates(family, d)
    for i, (top, v0, forest) in enumerate(candidates):
        r_l = minus_part_size(top, r, v0)
        if r_l is None:
            continue
        if built[i] is None:
            built[i] = _build(family, d, forest)
        runs, shape = built[i]
        trees = sorted(_decorate(r, r_l, runs, shape), key=canonical_form)
        yield TreeClass(tuple(TreeWithCount(tree) for tree in trees))


def enumerate_trees(family: TreeFamily, d: int, r: int) -> list[TreeClass]:
    """Every shape class of :func:`tree_classes`, in its order."""
    return list(tree_classes(family, d, r))


def enumerate_decorated_trees(family: TreeFamily, d: int, r: int) -> list[TreeWithCount]:
    """All isomorphism classes of fully decorated trees for (family, d, r),
    sorted by canonical form; each class is generated exactly once."""
    return sorted((twc for cls in tree_classes(family, d, r) for twc in cls.variants), key=lambda twc: canonical_form(twc.tree))


# ---------------------------------------------------------------------------
# JSON dump


def _canonical_order(tree: DecoratedTree) -> list[int]:
    """Vertices depth-first from the root, children in code order."""
    codes = tree.codes
    children = {v: sorted(kids, key=codes.__getitem__) for v, _, kids in tree.shape.bottom_up}
    order: list[int] = []
    stack = [tree.shape.root]
    while stack:
        v = stack.pop()
        order.append(v)
        stack += reversed(children[v])  # so that the first child is taken next
    return order


def tree_to_json_dict(twc: TreeWithCount) -> dict:
    """Stable JSON form of a decorated tree with its counts."""
    tree, shape = twc.tree, twc.tree.shape
    order = _canonical_order(tree)
    index = {v: i for i, v in enumerate(order)}
    odd = set(shape.odd_vertices)
    vertices = []
    for v in order:
        vertices.append(
            {
                "id": index[v],
                "parity": "odd" if v in odd else "even",
                "sign": {PLUS: "plus", MINUS: "minus"}.get(tree.sign(v)),
                "g": shape.genus[v] if v in odd else None,
                "f_size": tree.f_size(v) if v in odd else None,
            }
        )
    edges = sorted(
        ({"u": min(index[u], index[v]), "v": max(index[u], index[v]), "k": k} for u, v, k in shape.edges),
        key=lambda e: (e["u"], e["v"]),
    )
    return {
        "family": shape.family.value,
        "d": shape.d,
        "r": tree.r,
        "vertices": vertices,
        "edges": edges,
        "assignment_count": twc.assignment_count,
        "multiplicity": twc.multiplicity,
    }


def trees_to_json(classes: list[TreeClass]) -> str:
    return _json_text([tree_to_json_dict(v) for cls in classes for v in cls.variants])


def _json_text(value, margin: str = "") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, byte for byte, for
    dicts with string keys, lists and scalars.  The standard library indents
    in closures that refer to each other, a cycle that each call would leave
    to the garbage collector; this recursion leaves none."""
    import json  # here, not at the top: no computation needs it

    inner = margin + "  "
    if isinstance(value, dict) and value:
        lines = [f"{inner}{json.dumps(key)}: {_json_text(item, inner)}" for key, item in sorted(value.items())]
        return "{\n" + ",\n".join(lines) + f"\n{margin}}}"
    if isinstance(value, list) and value:
        return "[\n" + ",\n".join([inner + _json_text(item, inner) for item in value]) + f"\n{margin}]"
    return json.dumps(value)
