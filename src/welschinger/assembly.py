"""Assembly of the invariants chi^d_r from trees, F-values and relative counts.

For each decorated tree the contribution is

    sign * assignments * multiplicity * F(alpha-, beta+) * prod(relative factors)

where F is the cotangent invariant of the root component (keyed by the
root-edge profiles toward the minus and plus parts) and each odd vertex
contributes one relative count.  A vertex's profile splits into alpha, the
edge to the root for a plus vertex, and beta, the rest; the count is that of
the ruled surface of the geometry's ``surface_degree`` (4 over the plane,
2 over the 2-quadric) or, over the 3-quadric, the ruled-3-fold count of
:func:`~welschinger.relative.three_fold_count`.

The sign is (-1)^(#even vertices + 1) in every geometry.  Missing table
values abort the computation with the offending tree in the message; a
partial sum is never reported.

Each factor is looked up by the count tuples of its contact profiles, which
are the tables' own keys: a table hit builds no record.  An ``FKey``, or a
``RelativeKey`` with its ``RuledSurfaceClass``, is built only for a miss, to
derive the value or to name the key in the message.  The checks those
records make hold by construction here: the weights of a vertex's alpha and
beta add up to its total edge multiplicity, the b of its key.
"""

from __future__ import annotations

from .contact import ContactVector, GeometryKind, _counts, _Record, genus_smooth
from .cotangent import FInvariantEngine, builtin_f_engine
from .errors import InadmissiblePair, UnknownInvariant, UnresolvableFKey
from .relative import RelativeInvariantTable, builtin_relative_table, three_fold_count
from .trees import (
    FAMILY_OF,
    DecoratedTree,
    canonical_form,
    pair_condition_count,
    tree_classes,
)

__all__ = [
    "LedgerRow",
    "ChiResult",
    "ChiPolynomial",
    "chi",
    "chi_polynomial",
    "admissible_real_counts",
    "check_admissible",
    "check_congruence",
    "check_sign_law",
    "Clause",
]

def _json_int(value: int):
    """Exactness-preserving JSON value: decimal string beyond 64-bit range."""
    return value if -(2**63) <= value < 2**63 else str(value)


class LedgerRow(_Record):
    def __init__(
        self,
        tree: str,
        assignment_count: int,
        multiplicity: int,
        sign: int,
        f_value: int,
        relative_factors: tuple[int, ...],
        contribution: int,
    ):
        object.__setattr__(self, "tree", tree)
        object.__setattr__(self, "assignment_count", assignment_count)
        object.__setattr__(self, "multiplicity", multiplicity)
        object.__setattr__(self, "sign", sign)
        object.__setattr__(self, "f_value", f_value)
        object.__setattr__(self, "relative_factors", relative_factors)
        object.__setattr__(self, "contribution", contribution)

    def to_json_dict(self) -> dict:
        return {
            "tree": self.tree,
            "assignment_count": self.assignment_count,
            "multiplicity": _json_int(self.multiplicity),
            "sign": self.sign,
            "f_value": self.f_value,
            "relative_factors": [_json_int(x) for x in self.relative_factors],
            "contribution": _json_int(self.contribution),
        }


class ChiResult(_Record):
    def __init__(self, geometry: GeometryKind, d: int, r: int, value: int, ledger: tuple[LedgerRow, ...]):
        object.__setattr__(self, "geometry", geometry)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "ledger", ledger)

    def to_json_dict(self) -> dict:
        return {
            "geometry": self.geometry.value,
            "d": self.d,
            "r": self.r,
            "chi": _json_int(self.value),
            "ledger": [row.to_json_dict() for row in self.ledger],
        }


def admissible_real_counts(geometry: GeometryKind, d: int) -> range:
    """Real-point counts r for which chi(geometry, d, r) is defined, as a
    range: the family's ``real_point_counts`` (empty for d < 1) less r = 0
    over the 3-quadric.  At a huge degree nothing is listed before the first
    r is used."""
    counts = FAMILY_OF[geometry].real_point_counts(d)
    # r = 0 is excluded over the 3-quadric: its invariant needs a real point
    return counts[1:] if geometry is GeometryKind.ELLIPSOID_QUADRIC3 and 0 in counts else counts


def check_admissible(geometry: GeometryKind, d: int, r: int) -> None:
    """Raise InadmissiblePair unless chi(geometry, d, r) is defined."""
    if r not in admissible_real_counts(geometry, d):
        raise InadmissiblePair.of(geometry, d, r)


def _vertex_factors(geometry: GeometryKind, tree: DecoratedTree, table: RelativeInvariantTable) -> list[int]:
    """The relative count of each odd vertex, in vertex order."""
    factors = []
    shape = tree.shape
    adj, root, n = shape.adjacency, shape.root, geometry.surface_degree
    for v in shape.odd_vertices:
        g, k_s, plus = shape.genus[v], shape.k_s[v], tree.is_plus(v)
        # the weights of alpha and beta add up to k_s, the b of the key
        alpha = _counts([shape.root_edges[v]]) if plus else ()
        beta = _counts([k for w, k in adj[v] if not (plus and w == root)])
        if n is not None:
            factors.append(table.count(n, g, k_s, alpha, beta))
        else:
            alpha, beta = ContactVector._canonical(alpha), ContactVector._canonical(beta)
            factors.append(three_fold_count(g, k_s, alpha, beta, tree.f_size(v), table))
    return factors


def chi(
    geometry: GeometryKind,
    d: int,
    r: int,
    relative_table: RelativeInvariantTable | None = None,
    f_engine: FInvariantEngine | None = None,
) -> ChiResult:
    """The invariant chi^d_r with its full contribution ledger.  A key
    outside the tables raises at the first tree that needs it, in the order
    of :func:`~welschinger.trees.tree_classes`, and no later shape is
    decorated."""
    check_admissible(geometry, d, r)
    table = relative_table or builtin_relative_table()
    engine = f_engine or builtin_f_engine()
    family = FAMILY_OF[geometry]
    kind = geometry.lagrangian

    rows: list[LedgerRow] = []
    total = 0
    for cls in tree_classes(family, d, r):
        for twc in cls.variants:
            tree = twc.tree
            label = canonical_form(tree).decode()
            try:
                f_value = engine.plain_value(kind, *tree.root_counts)
                factors = _vertex_factors(geometry, tree, table)
            except (UnknownInvariant, UnresolvableFKey) as exc:
                raise type(exc)(f"{exc} [required by tree {label}]") from exc
            sign = tree.sign_factor()
            contribution = sign * twc.assignment_count * twc.multiplicity * f_value
            for factor in factors:
                contribution *= factor
            rows.append(
                LedgerRow(
                    tree=label,
                    assignment_count=twc.assignment_count,
                    multiplicity=twc.multiplicity,
                    sign=sign,
                    f_value=f_value,
                    relative_factors=tuple(factors),
                    contribution=contribution,
                )
            )
            total += contribution
    return ChiResult(geometry=geometry, d=d, r=r, value=total, ledger=tuple(rows))


class ChiPolynomial(_Record):
    """Coefficients r -> chi^d_r; entries whose table dependencies are out of
    range are reported as unavailable instead of being dropped."""

    def __init__(self, geometry: GeometryKind, d: int, coefficients: dict[int, int], unavailable: dict[int, str] | None = None):
        object.__setattr__(self, "geometry", geometry)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "coefficients", coefficients)
        object.__setattr__(self, "unavailable", {} if unavailable is None else unavailable)

    def to_json_dict(self) -> dict:
        return {
            "geometry": self.geometry.value,
            "d": self.d,
            "coefficients": {str(r): _json_int(v) for r, v in sorted(self.coefficients.items())},
            "unavailable": {str(r): msg for r, msg in sorted(self.unavailable.items())},
        }


def chi_polynomial(
    geometry: GeometryKind,
    d: int,
    r_max: int | None = None,
    relative_table: RelativeInvariantTable | None = None,
    f_engine: FInvariantEngine | None = None,
) -> ChiPolynomial:
    """chi^d_r for every admissible r <= r_max (every admissible r when
    r_max is None), a value outside the tables listed as unavailable; empty
    for an empty domain, and InadmissiblePair for an r_max below its least r."""
    counts = admissible_real_counts(geometry, d)
    if counts and r_max is not None and r_max < counts[0]:
        raise InadmissiblePair(f"{geometry.value} has no admissible real-point count <= {r_max} in degree {d}")
    coefficients: dict[int, int] = {}
    unavailable: dict[int, str] = {}
    for r in counts:
        if r_max is not None and r > r_max:
            break
        try:
            coefficients[r] = chi(geometry, d, r, relative_table, f_engine).value
        except (UnknownInvariant, UnresolvableFKey) as exc:
            unavailable[r] = str(exc)
    return ChiPolynomial(geometry=geometry, d=d, coefficients=coefficients, unavailable=unavailable)


# ---------------------------------------------------------------------------
# congruences and sign laws


class Clause(_Record):
    """One law about chi^d_r that applies to a value: ``modulus`` is the power
    of two a divisibility law says divides chi, None for any other law."""

    def __init__(self, name: str, modulus: int | None, passed: bool):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "passed", passed)


def check_congruence(geometry: GeometryKind, d: int, r: int, value: int) -> tuple[Clause, ...]:
    """The laws 2^k | chi^d_r that apply at (geometry, d, r), each written
    as (name, the condition under which it holds, k); raises InadmissiblePair
    unless chi(geometry, d, r) is defined."""
    check_admissible(geometry, d, r)
    r_x = pair_condition_count(FAMILY_OF[geometry], d, r)
    if geometry is GeometryKind.PROJECTIVE_PLANE:
        laws = [
            ("pair-gap", r + 1 < r_x, r_x - r - 1),
            ("pair-gap-aligned", r < r_x and (r - (d + 1)) % 4 == 0, r_x - r),
            ("plane-64", r + 1 < d, 6),
        ]
    elif geometry is GeometryKind.ELLIPSOID_QUADRIC2:
        laws = [
            ("pair-gap", r < 2 * d - 1, 2 * d - r - 1),
            ("pair-gap-aligned", r < 2 * d and (r - (2 * d + 1)) % 4 == 0, 2 * d - r),
            ("sixteen-at-top", r == 2 * d - 3 and d >= 2, 4),
        ]
    else:
        laws = [("three-quarter-gap", r < r_x, r_x - r)]
    return tuple(Clause(name, 1 << k, value % (1 << k) == 0) for name, applies, k in laws if applies)


def check_sign_law(geometry: GeometryKind, d: int, r: int, value: int) -> Clause | None:
    """The sign law of chi^d_r at r <= 1 real points, None where none applies
    (over the 3-quadric: r = 1 and the Chern degree 3d is 2 mod 4); raises
    InadmissiblePair unless chi(geometry, d, r) is defined."""
    check_admissible(geometry, d, r)
    if geometry is GeometryKind.ELLIPSOID_QUADRIC3:
        if r == 1 and (3 * d) % 4 == 2:
            return Clause("chi <= 0 at one real point", None, value <= 0)
    elif r <= 1:
        return Clause("(-1)^genus * chi >= 0", None, (-1) ** genus_smooth(geometry, d) * value >= 0)
    return None
