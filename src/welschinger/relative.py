"""Relative rational-curve counts on ruled surfaces and the ruled 3-fold.

``n_sigma`` returns the number of irreducible rational curves on the degree-n
rational ruled surface (n = 2 or 4) in class a*e + b*f, where e is a section
of self-intersection n and f a fibre, with prescribed (alpha) and free (beta)
tangency profiles along the exceptional section E = e - n f, through the
adequate number of fixed points.  The section classes e + b f (a = 1) are
computed: a section restricts onto all of H^0(O_E(b)), and each prescribed
contact is one linear condition on it, so the count is the degree of the
coincident-root locus of beta, I^beta |beta|! / prod beta_k! with
I^beta = prod k^beta_k, whatever n and alpha are.  The one class with
a >= 2 that the goldens need is the curated constant ``_CURATED``, and any
other key raises instead of defaulting to zero.

``n_three`` covers the 3-fold P(O(1,1) + O) over the 2-dimensional quadric Q:
a class (a,b) + c f splits into a rational curve of bidegree (a,b) on Q and a
section-with-fibre curve in the restricted ruling, which is the degree-4
ruled surface again, whose e + f count with one simple contact is 1, so it
reads no table; it alone holds the contact check and the pure fibre.
``three_fold_count`` is the count of a 3-quadric tree vertex, and holds only
the pairs rule: the ``n_three`` sum over its bidegrees when its point pairs
make the curves rigid, 0 when they over-determine them, and a miss when they
do not.
"""

from __future__ import annotations

from functools import cache
from math import factorial, prod

from .contact import ContactVector, _Record
from .errors import UnknownInvariant

__all__ = [
    "RuledSurfaceClass",
    "RelativeKey",
    "RelativeInvariantTable",
    "builtin_relative_table",
    "quadric_count",
    "n_three",
    "three_fold_count",
]


class RuledSurfaceClass(_Record):
    """Class a*e + b*f on the ruled surface of degree n (n = 2 or 4)."""

    def __init__(self, n: int, a: int, b: int):
        if n not in (2, 4):
            raise ValueError("only the degree-2 and degree-4 ruled surfaces occur")
        if a < 0 or b < 0 or (a, b) == (0, 0):
            raise ValueError("class coefficients must be non-negative and not both zero")
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
        # the contact weights add up to b, the contact of a*e + b*f with the
        # exceptional section; this also keeps the key's point conditions,
        # (n+2)a + b - 1 + |beta|, >= 0
        weight = alpha.weight + beta.weight
        if weight != surface.b:
            raise ValueError(f"contact weight {weight} differs from b={surface.b}")
        object.__setattr__(self, "surface", surface)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)

    def __str__(self) -> str:
        return f"N{self.surface.n}^{{{self.surface}}}({self.alpha}, {self.beta})"


@cache
def _section_count(beta: tuple[int, ...]) -> int:
    """The count of a section class e + b f with the free contact counts
    ``beta``, on either ruled surface and whatever its prescribed contacts:
    I^beta |beta|! / prod beta_k!, the degree of the locus of polynomials
    whose roots coincide as beta says."""
    return prod(k**m for k, m in enumerate(beta, 1)) * factorial(sum(beta)) // prod(map(factorial, beta))


class RelativeInvariantTable:
    """The curated a >= 2 counts behind the ``n_sigma`` contract.

    One lookup rule, :meth:`count`, keyed by plain values: fibre classes are
    rule-based (the unique fibre through a point, b = 1 with one simple
    contact, counts 1), section classes (a = 1) are :func:`_section_count`,
    and every other key must be present in ``entries``; otherwise
    UnknownInvariant is raised (never a silent zero).  ``n_sigma`` unpacks
    its key and applies the same rule.  ``entries`` maps the tuple
    (n, a, b, alpha counts, beta counts) of each key, which hashes faster
    than the record, to its value; the built-in table holds ``_CURATED``.
    """

    def __init__(self, entries: dict[tuple, int]):
        self._entries = entries

    def n_sigma(self, key: RelativeKey) -> int:
        s = key.surface
        return self.count(s.n, s.a, s.b, key.alpha.counts, key.beta.counts)

    def count(self, n: int, a: int, b: int, alpha: tuple[int, ...], beta: tuple[int, ...]) -> int:
        """The count of class a*e + b*f on the degree-n ruled surface with the
        contact counts ``alpha`` (prescribed) and ``beta`` (free), whose
        weights add up to b; RelativeKey and RuledSurfaceClass are built only
        to name a miss."""
        if a == 1:
            return _section_count(beta)
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


# The one curated count past the section classes, keyed like ``entries``:
# N2^{2e+f}(0, e1), from the degree-5/r=1 two-sphere ledger, first
# contribution (ruled-surface count of class 2e+f through 9 points); the
# Abramovich-Bertram formula gives it independently as 96 - 3.
_CURATED = {(2, 2, 1, (), (1,)): 93}


@cache
def builtin_relative_table() -> RelativeInvariantTable:
    return RelativeInvariantTable(_CURATED)


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


def n_three(a: int, b: int, c: int, alpha: ContactVector, beta: ContactVector) -> int:
    """Rational curves on the ruled 3-fold in class (a, b) + c f.

    Only the fibre coefficient c = 1 with a single simple contact (prescribed
    or free) occurs in the assembled invariants; other counts raise
    UnknownInvariant.  Past the pure fibre (a, b) = (0, 0), the count factors
    as quadric_count(a, b) times the degree-4 ruled-surface count of e + f
    with one simple contact, whose :func:`_section_count` is 1.
    """
    if c != 1:
        raise UnknownInvariant(f"no curated 3-fold count for fibre coefficient {c}")
    if (alpha or beta).counts != (1,) or (alpha and beta):
        raise UnknownInvariant("3-fold counts need exactly one simple contact")
    if (a, b) == (0, 0):
        return 1
    return quadric_count(a, b)


def three_fold_count(g: int, c: int, alpha: ContactVector, beta: ContactVector, pairs: int) -> int:
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
    return sum(n_three(a, g - a, c, alpha, beta) for a in range(g + 1))
