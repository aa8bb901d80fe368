"""Relative rational-curve counts on ruled surfaces and the ruled 3-fold.

``n_sigma`` returns the number of irreducible rational curves on the degree-n
rational ruled surface (n = 2 or 4) in class a*e + b*f, where e is a section
of self-intersection n and f a fibre, with prescribed (alpha) and free (beta)
tangency profiles along the exceptional section E = e - n f, through the
adequate number of fixed points.  Values are curated: each one is pinned by
dividing a contribution ledger of the assembled invariants, and unknown keys
raise instead of defaulting to zero.

``n_three`` covers the 3-fold P(O(1,1) + O) over the 2-dimensional quadric Q:
a class (a,b) + c f splits into a rational curve of bidegree (a,b) on Q and a
section-with-fibre curve in the restricted ruling, which is the degree-4
ruled surface again; it alone holds the contact check, the pure fibre and the
ruled-surface lookup.  ``three_fold_count`` is the count of a 3-quadric tree
vertex, and holds only the pairs rule: the ``n_three`` sum over its bidegrees
when its point pairs make the curves rigid, 0 when they over-determine them,
and a miss when they do not.
"""

from __future__ import annotations

from functools import cache

from .contact import ContactVector, _non_negative, _Record, _weight
from .errors import UnknownInvariant
from .tables import RELATIVE_TABLE, _packaged_payload, _read_json, _table_entries

__all__ = [
    "RuledSurfaceClass",
    "RelativeKey",
    "RelativeInvariantTable",
    "builtin_relative_table",
    "quadric_count",
    "n_three",
    "three_fold_count",
]


def _check_class(n: int, a: int, b: int) -> None:
    """ValueError unless a*e + b*f is a class on a ruled surface that occurs."""
    if n not in (2, 4):
        raise ValueError("only the degree-2 and degree-4 ruled surfaces occur")
    if a < 0 or b < 0 or (a, b) == (0, 0):
        raise ValueError("class coefficients must be non-negative and not both zero")


def _check_weight(b: int, alpha: tuple[int, ...], beta: tuple[int, ...]) -> None:
    """ValueError unless the contact counts ``alpha`` and ``beta`` weigh b, the
    contact of a*e + b*f with the exceptional section; this also keeps the
    key's point conditions, (n+2)a + b - 1 + |beta|, >= 0."""
    weight = _weight(alpha) + _weight(beta)
    if weight != b:
        raise ValueError(f"contact weight {weight} differs from b={b}")


class RuledSurfaceClass(_Record):
    """Class a*e + b*f on the ruled surface of degree n (n = 2 or 4)."""

    def __init__(self, n: int, a: int, b: int):
        _check_class(n, a, b)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def __str__(self) -> str:
        e = "" if self.a == 1 else str(self.a)
        f = "" if self.b == 1 else str(self.b)
        if self.a == 0:
            return f"{f}f"
        if self.b == 0:
            return f"{e}e"
        return f"{e}e+{f}f"


class RelativeKey(_Record):
    def __init__(self, surface: RuledSurfaceClass, alpha: ContactVector, beta: ContactVector):
        _check_weight(surface.b, alpha.counts, beta.counts)
        object.__setattr__(self, "surface", surface)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)

    def __str__(self) -> str:
        return f"N{self.surface.n}^{{{self.surface}}}({self.alpha}, {self.beta})"


class RelativeInvariantTable:
    """Exact curated table behind the ``n_sigma`` contract.

    One lookup rule, :meth:`count`, keyed by plain values: fibre classes are
    rule-based (the unique fibre through a point, b = 1 with one simple
    contact, counts 1), and every other key must be present in the table;
    otherwise UnknownInvariant is raised (never a silent zero).  ``n_sigma``
    unpacks its key and applies the same rule.  ``entries`` maps the tuple
    :meth:`_key` of each key, which hashes faster than the record, to its
    value.
    """

    def __init__(self, entries: dict[tuple, int]):
        self._entries = entries

    @staticmethod
    def _key(key: RelativeKey) -> tuple:
        """(n, a, b, alpha counts, beta counts) of ``key``."""
        s = key.surface
        return (s.n, s.a, s.b, key.alpha.counts, key.beta.counts)

    @classmethod
    def from_json_payload(cls, payload: dict, where: str = "relative table") -> "RelativeInvariantTable":
        """A table over checked rows: the checks of RuledSurfaceClass,
        ContactVector and RelativeKey, made on count tuples, so that no
        record is built."""
        fields = [("n", int), ("a", int), ("b", int), ("alpha", list), ("beta", list)]

        def key_of(n, a, b, alpha, beta):
            _check_class(n, a, b)
            alpha, beta = _non_negative(tuple(alpha)), _non_negative(tuple(beta))
            _check_weight(b, alpha, beta)
            return (n, a, b, alpha, beta)

        return cls(_table_entries(payload, fields, key_of, where))

    @classmethod
    def from_path(cls, path) -> "RelativeInvariantTable":
        return cls.from_json_payload(_read_json(path), where=repr(str(path)))

    def n_sigma(self, key: RelativeKey) -> int:
        return self.count(*self._key(key))

    def count(self, n: int, a: int, b: int, alpha: tuple[int, ...], beta: tuple[int, ...]) -> int:
        """The count of class a*e + b*f on the degree-n ruled surface with the
        contact counts ``alpha`` (prescribed) and ``beta`` (free), whose
        weights add up to b; RelativeKey and RuledSurfaceClass are built only
        to name a miss."""
        if a == 0:
            # a curve with zero section coefficient is a union of fibres;
            # only the single fibre through a point is irreducible rational
            if b == 1:
                return 1
            reason = ": multiple-fibre classes carry no irreducible count"
        else:
            value = self._entries.get((n, a, b, alpha, beta))
            if value is not None:
                return value
            reason = " is outside the curated table"
        key = RelativeKey(RuledSurfaceClass(n, a, b), ContactVector(alpha), ContactVector(beta))
        raise UnknownInvariant(f"{key}{reason}")


@cache
def builtin_relative_table() -> RelativeInvariantTable:
    return RelativeInvariantTable.from_json_payload(_packaged_payload(RELATIVE_TABLE))


# ---------------------------------------------------------------------------
# the 2-dimensional quadric and the ruled 3-fold over it

# rational curves of bidegree (a, b) on Q through 2(a+b) - 1 points
_QUADRIC_COUNTS = {
    (1, 0): 1,
    (0, 1): 1,
    (1, 1): 1,
    (3, 1): 1,
    (1, 3): 1,
    (2, 2): 12,
}


def quadric_count(a: int, b: int) -> int:
    """Rational curves of bidegree (a, b) on the 2-quadric through 2(a+b)-1 points.

    Bidegrees (a, 0) and (0, b) with a coefficient >= 2 are unions of rulings
    and count 0; other bidegrees outside the table raise UnknownInvariant.
    """
    if a < 0 or b < 0:
        raise ValueError("bidegree coefficients must be non-negative")
    if (a == 0 or b == 0) and max(a, b) >= 2:
        return 0
    value = _QUADRIC_COUNTS.get((a, b))
    if value is None:
        raise UnknownInvariant(f"no curated count for quadric bidegree ({a}, {b})")
    return value


def n_three(
    a: int,
    b: int,
    c: int,
    alpha: ContactVector,
    beta: ContactVector,
    table: RelativeInvariantTable | None = None,
) -> int:
    """Rational curves on the ruled 3-fold in class (a, b) + c f.

    Only the fibre coefficient c = 1 with a single simple contact (prescribed
    or free) occurs in the assembled invariants; other counts raise
    UnknownInvariant.  Past the pure fibre (a, b) = (0, 0), the count factors
    as quadric_count(a, b) times the degree-4 ruled-surface count of e + f.
    """
    if c != 1:
        raise UnknownInvariant(f"no curated 3-fold count for fibre coefficient {c}")
    if (alpha or beta).counts != (1,) or (alpha and beta):
        raise UnknownInvariant("3-fold counts need exactly one simple contact")
    if (a, b) == (0, 0):
        return 1
    return quadric_count(a, b) * (table or builtin_relative_table()).count(4, 1, 1, alpha.counts, beta.counts)


def three_fold_count(
    g: int, c: int, alpha: ContactVector, beta: ContactVector, pairs: int, table: RelativeInvariantTable | None = None
) -> int:
    """The count of a 3-fold tree vertex of degree g holding ``pairs`` point
    pairs.  A bidegree term counts only when the pairs make both the quadric
    projection and the ruled-surface curve rigid.  The pairs needed,
    2g - 1 - [prescribed] (1 - [prescribed] at g = 0), do not depend on the
    bidegree (a, g - a); the contact is prescribed when alpha holds it.  With
    more pairs, generic pairs meet no curve and the count is 0; with fewer,
    the curves move and UnknownInvariant is raised; with exactly those, it is
    the sum of :func:`n_three` over the bidegrees."""
    need = (2 * g - 1 if g else 1) - (1 if alpha else 0)
    if pairs < need:
        raise UnknownInvariant(f"N3 of (0, {g}) + {c}f moves with {pairs} < {need} point pairs: count is not defined")
    if pairs > need:
        return 0
    return sum(n_three(a, g - a, c, alpha, beta, table) for a in range(g + 1))
