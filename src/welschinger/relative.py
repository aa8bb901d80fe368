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
ruled surface again.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

from .contact import ContactVector
from .errors import DimensionMismatch, UnknownInvariant
from .tables import _read_json, _table_entries

__all__ = [
    "RuledSurfaceClass",
    "RelativeKey",
    "RelativeInvariantTable",
    "builtin_relative_table",
    "point_count",
    "quadric_count",
    "n_three",
    "n_three_required_pairs",
]


@dataclass(frozen=True)
class RuledSurfaceClass:
    """Class a*e + b*f on the ruled surface of degree n (n = 2 or 4)."""

    n: int
    a: int
    b: int

    def __post_init__(self):
        if self.n not in (2, 4):
            raise ValueError("only the degree-2 and degree-4 ruled surfaces occur")
        if self.a < 0 or self.b < 0 or (self.a, self.b) == (0, 0):
            raise ValueError("class coefficients must be non-negative and not both zero")

    def __str__(self) -> str:
        e = "" if self.a == 1 else str(self.a)
        f = "" if self.b == 1 else str(self.b)
        if self.a == 0:
            return f"{f}f"
        if self.b == 0:
            return f"{e}e"
        return f"{e}e+{f}f"


@dataclass(frozen=True)
class RelativeKey:
    surface: RuledSurfaceClass
    alpha: ContactVector
    beta: ContactVector

    def __post_init__(self):
        # total contact with the exceptional section equals b
        if self.alpha.weight + self.beta.weight != self.surface.b:
            raise ValueError(
                f"contact weight {self.alpha.weight + self.beta.weight} differs from b={self.surface.b}"
            )

    def __str__(self) -> str:
        return f"N{self.surface.n}^{{{self.surface}}}({self.alpha}, {self.beta})"


def point_count(key: RelativeKey) -> int:
    """Point conditions making the relative count rigid.

    Rational curves in |a e + b f| move in a ((n+2)a + 2b - 1)-dimensional
    family; a prescribed order-i contact costs i conditions and a free one
    costs i - 1.
    """
    s = key.surface
    return (s.n + 2) * s.a + 2 * s.b - 1 - key.alpha.weight - (key.beta.weight - key.beta.size)


class RelativeInvariantTable:
    """Exact curated table behind the ``n_sigma`` contract.

    Fibre classes are rule-based: the unique fibre through a point (b = 1,
    one simple contact) counts 1.  Every other key must be present in the
    table; otherwise UnknownInvariant is raised (never a silent zero).
    """

    def __init__(self, entries: dict[tuple, int], version: int = 1):
        self.version = version
        self._entries = dict(entries)

    @staticmethod
    def _key(n: int, a: int, b: int, alpha: ContactVector, beta: ContactVector) -> tuple:
        return (n, a, b, alpha.counts, beta.counts)

    @classmethod
    def from_json_payload(cls, payload: dict, where: str = "relative table") -> "RelativeInvariantTable":
        fields = [("n", int), ("a", int), ("b", int), ("alpha", list), ("beta", list)]

        def key_of(n, a, b, alpha, beta):
            return cls._key(n, a, b, ContactVector(tuple(alpha)), ContactVector(tuple(beta)))

        return cls(_table_entries(payload, fields, key_of, where), version=payload.get("version", 1))

    @classmethod
    def from_path(cls, path) -> "RelativeInvariantTable":
        return cls.from_json_payload(_read_json(path), where=str(path))

    def n_sigma(self, key: RelativeKey) -> int:
        if point_count(key) < 0:
            raise DimensionMismatch(f"{key} has negative point count")
        s = key.surface
        if s.a == 0:
            # a curve with zero section coefficient is a union of fibres;
            # only the single fibre through a point is irreducible rational
            if s.b == 1:
                return 1
            raise UnknownInvariant(f"{key}: multiple-fibre classes carry no irreducible count")
        value = self._entries.get(self._key(s.n, s.a, s.b, key.alpha, key.beta))
        if value is None:
            raise UnknownInvariant(f"{key} is outside the curated table")
        return value

    def known_keys(self) -> list[RelativeKey]:
        out = []
        for (n, a, b, alpha, beta) in self._entries:
            out.append(
                RelativeKey(RuledSurfaceClass(n, a, b), ContactVector(alpha), ContactVector(beta))
            )
        return out


_BUILTIN: RelativeInvariantTable | None = None


def builtin_relative_table() -> RelativeInvariantTable:
    global _BUILTIN
    if _BUILTIN is None:
        payload = json.loads(
            resources.files("welschinger.tables").joinpath("relative_invariants.json").read_text()
        )
        _BUILTIN = RelativeInvariantTable.from_json_payload(payload)
    return _BUILTIN


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


def n_three_required_pairs(a: int, b: int, prescribed: bool) -> int:
    """Conjugate point pairs that make the 3-fold count rigid.

    A pure fibre ((a, b) = (0, 0)) is fixed by one point pair, or by its
    prescribed contact alone.  Otherwise the bidegree-(a, b) projection must
    be pinned by the pairs, minus one condition when the contact with the
    exceptional section is prescribed.
    """
    if (a, b) == (0, 0):
        return 0 if prescribed else 1
    return 2 * (a + b) - 1 - (1 if prescribed else 0)


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
    or free) occurs in the assembled invariants; the count factors as
    quadric_count(a, b) times the degree-4 ruled-surface count of e + f.
    """
    if c != 1:
        raise UnknownInvariant(f"no curated 3-fold count for fibre coefficient {c}")
    profile = alpha + beta
    if profile.counts != (1,) or (alpha and beta):
        raise UnknownInvariant("3-fold counts need exactly one simple contact")
    if (a, b) == (0, 0):
        return 1
    table = table or builtin_relative_table()
    surface = RuledSurfaceClass(4, 1, 1)
    key = RelativeKey(surface, alpha, beta)
    return quadric_count(a, b) * table.n_sigma(key)
