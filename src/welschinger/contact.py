"""Contact vectors, Lagrangian/geometry kinds, smooth genus and the cotangent
dimension equation.

All quantities are exact integers.  A *contact vector* records a finite
multiset of contact orders: ``counts[i]`` is the number of contacts of order
``i + 1`` (orders are 1-based, storage is a trimmed tuple).  These vectors
play two roles throughout the package: tangency profiles of curves relative
to a divisor, and asymptotic-orbit profiles of punctured curves in a unit
cotangent bundle.

The package's value records (contact vectors, keys, ledger rows, results)
derive from :class:`_Record` rather than being frozen dataclasses: importing
``dataclasses`` and generating each class's methods once took most of the
package's start-up time, which a one-call CLI process pays in full.
"""

from __future__ import annotations

import operator
from enum import Enum
from functools import cache

from .errors import NegativeDimension

__all__ = [
    "ContactVector",
    "LagrangianKind",
    "GeometryKind",
    "genus_smooth",
    "f_point_count",
]


@cache
def _term_re():
    """The pattern of one term of :meth:`ContactVector.parse`, compiled on the
    first parse: importing ``re`` and compiling it at import added 0.3 ms,
    6%, to a cold import of the package (CPython 3.11, 2-core Xeon), which
    no table load or computation needs."""
    import re

    return re.compile(r"^(\d*)e(\d+)$")


class _cached:
    """``functools.cached_property`` without the lock that it takes on every
    first read before Python 3.12; the value is stored as an instance
    attribute, which shadows this descriptor on later reads.  It is set with
    ``object.__setattr__``, which also gets past a record's refusal: an item
    written into ``obj.__dict__`` instead would slow every later attribute
    read of the instance on CPython 3.11 and 3.12."""

    def __init__(self, fn):
        self.fn, self.name = fn, fn.__name__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = self.fn(obj)
        object.__setattr__(obj, self.name, value)
        return value


class _Record:
    """An immutable value: the semantics of ``@dataclass(frozen=True)``
    without the cost of generating its methods per class at import.

    A subclass writes an ``__init__`` that sets each of its positional
    parameters, the record's fields, with ``object.__setattr__``.  Records
    are equal when they are of the same class with equal fields, hash as the
    tuple of their fields and print as ``Name(field=value, ...)``; setting
    or deleting an attribute raises AttributeError.
    """

    def __init_subclass__(cls):
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1 : code.co_argcount]
        get = operator.attrgetter(*cls._fields)
        # attrgetter of one name returns the bare value; a record's values are a tuple
        cls._values = staticmethod(get if len(cls._fields) > 1 else lambda record: (get(record),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values(self)))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


MAX_PARSED_ORDER = 10_000
"""Largest contact order :meth:`ContactVector.parse` accepts.  A vector
stores one count per order up to its largest, so a parsed ``e1000000000``
would ask for 8 GB, and each reduction of a key copies its vectors.  A tree
of degree d has orders at most d, and a key with an order past a few hundred
needs more reductions than ``MAX_DERIVATION_DEPTH``; at this bound ``derive``
still answers in under 0.2 s (``--beta e10000 --pairs 1``, a 2-core Xeon)."""


def _trimmed(counts: tuple[int, ...]) -> tuple[int, ...]:
    """``counts`` without its trailing zeros, in one pass over them."""
    n = len(counts)
    while n and not counts[n - 1]:
        n -= 1
    return counts[:n]


def _moved(counts: tuple[int, ...], order: int, step: int) -> tuple[int, ...]:
    """The canonical ``counts`` with ``step`` (1 or -1) more contacts of
    ``order``, a removed one being present; only the changed count can need
    a trim."""
    i = order - 1
    if i < len(counts):
        return _trimmed(counts[:i] + (counts[i] + step,) + counts[order:])
    return counts + (0,) * (i - len(counts)) + (step,)


def _non_negative(counts: tuple[int, ...]) -> tuple[int, ...]:
    """The int ``counts`` trimmed, or ValueError for a negative one: the
    check of a vector's counts and of a table row's, whose types are checked
    before."""
    if min(counts, default=0) < 0:
        raise ValueError("contact multiplicities must be non-negative")
    return _trimmed(counts)


def _weight(counts: tuple[int, ...]) -> int:
    """The total contact order of ``counts``."""
    return sum(map(operator.mul, counts, range(1, len(counts) + 1)))


def _format(counts: tuple[int, ...]) -> str:
    """The canonical ``counts`` as text, ``"0"`` or like ``"2e1+e3"``."""
    parts = [f"e{i}" if c == 1 else f"{c}e{i}" for i, c in enumerate(counts, start=1) if c]
    return "+".join(parts) or "0"


def _counts(orders) -> tuple[int, ...]:
    """The canonical counts of the contact orders ``orders`` (each >= 1): the
    ``counts`` of their contact vector, and a table key's field as it stands."""
    counts = [0] * max(orders, default=0)
    for order in orders:  # a loop: faster than one count() per order on a vertex's few edges
        counts[order - 1] += 1
    return tuple(counts)


class ContactVector(_Record):
    """Multiset of contact orders stored densely, one count per order up to
    the largest; canonical (trailing zeros trimmed).

    Equality and hashing act on the canonical form, so contact vectors can be
    used as dictionary keys.  ``size`` is the number of contacts, ``weight``
    the total contact order; ``weight >= size`` always holds.
    """

    def __init__(self, counts: tuple[int, ...] = ()) -> None:
        # a str or a float read through int() would be a wrong vector, not an error
        if isinstance(counts, str):
            raise TypeError("contact counts must be ints, not a str: ContactVector.parse reads text")
        c = tuple(counts)
        if not set(map(type, c)) <= {int}:
            raise TypeError(f"contact counts must be ints, got {c!r}")
        object.__setattr__(self, "counts", _non_negative(c))

    @classmethod
    def _canonical(cls, counts: tuple[int, ...]) -> "ContactVector":
        """A vector from counts that are already canonical (non-negative ints,
        trailing zeros trimmed), without the checks of ``__init__``."""
        vector = object.__new__(cls)
        object.__setattr__(vector, "counts", counts)
        return vector

    @classmethod
    def zero(cls) -> "ContactVector":
        return cls(())

    @classmethod
    def e(cls, order: int, count: int = 1) -> "ContactVector":
        """``count`` contacts of the given order (``e(2)`` is one double contact)."""
        if order < 1:
            raise ValueError("contact order must be >= 1")
        return cls((0,) * (order - 1) + (count,))

    @classmethod
    def parse(cls, text: str) -> "ContactVector":
        """Parse strings like ``"0"``, ``"e2"``, ``"2e1"`` or ``"e1+e2"``,
        summing each order's counts over the terms; ValueError for any other
        text and for an order above :data:`MAX_PARSED_ORDER`."""
        text = text.strip().replace(" ", "")
        if text in ("", "0"):
            return cls.zero()
        match, counts = _term_re().match, []
        for term in text.split("+"):
            m = match(term)
            if m is None:
                raise ValueError(f"cannot parse contact term {term!r}")
            coeff = int(m.group(1)) if m.group(1) else 1
            order = int(m.group(2))
            if order > MAX_PARSED_ORDER:
                raise ValueError(f"contact order {order} is above the bound {MAX_PARSED_ORDER:,}")
            if order < 1:
                raise ValueError("contact order must be >= 1")
            counts += [0] * (order - len(counts))
            counts[order - 1] += coeff
        return cls(tuple(counts))

    def __bool__(self) -> bool:
        return bool(self.counts)

    @property
    def size(self) -> int:
        return sum(self.counts)

    @property
    def weight(self) -> int:
        return _weight(self.counts)

    def __str__(self) -> str:
        return _format(self.counts)


class LagrangianKind(Enum):
    """The three constant-curvature Lagrangians whose cotangent bundles occur,
    each with its dimension and its orbit-space weight ``epsilon`` in the
    dimension equation (2 for a sphere, 1 for RP^2)."""

    SPHERE2 = ("sphere2", 2, 2)
    RP2 = ("rp2", 2, 1)
    SPHERE3 = ("sphere3", 3, 2)

    def __new__(cls, value: str, dimension: int, epsilon: int):
        member = object.__new__(cls)
        member._value_ = value
        member.dimension = dimension
        member.epsilon = epsilon
        return member


class GeometryKind(Enum):
    """Ambient real symplectic manifolds with computable invariants.

    Each kind fixes its real Lagrangian and the pairing constants of the
    degree-``delta`` class d (a multiple of the line / plane-section /
    hyperplane-section class): ``c1(X).d = c1 * delta`` and
    ``d^2 = square * delta^2``; the 3-dimensional quadric has no ``d^2``.
    ``surface_degree`` is the degree n of the ruled surface that carries
    the relative counts (None over the 3-quadric).
    """

    PROJECTIVE_PLANE = ("cp2", LagrangianKind.RP2, 3, 1, 4)
    ELLIPSOID_QUADRIC2 = ("quadric2", LagrangianKind.SPHERE2, 4, 2, 2)
    ELLIPSOID_QUADRIC3 = ("quadric3", LagrangianKind.SPHERE3, 3, None, None)

    def __new__(cls, value: str, lagrangian: LagrangianKind, c1: int, square: int | None, surface_degree: int | None):
        member = object.__new__(cls)
        member._value_ = value
        member.lagrangian = lagrangian
        member.c1 = c1
        member.square = square
        member.surface_degree = surface_degree
        return member


def genus_smooth(geometry: GeometryKind, delta: int) -> int:
    """Smooth genus g_d = (d^2 - c1.d + 2)/2 of the degree-``delta`` class."""
    if delta < 1:
        raise ValueError("degree must be >= 1")
    if geometry.square is None:
        raise ValueError("no intersection pairing of 2-cycles in a 6-manifold")
    num = geometry.square * delta * delta - geometry.c1 * delta + 2
    if num % 2:
        raise ValueError(f"odd numerator {num} in the smooth genus of degree {delta}")
    return num // 2


def _point_count(kind: LagrangianKind, free: int, weight: int, prescribed: int = 0) -> int:
    """:func:`f_point_count` with no pairs, from ``free`` free and
    ``prescribed`` prescribed orbits of total order ``weight``; the root
    window of a tree (:attr:`welschinger.trees.Shape.window_top`) reads it
    too.  The division is exact for n = 2 and 3."""
    n = kind.dimension
    return (2 * free - 2 * (n - 2) * prescribed + n - 3) // (n - 1) + kind.epsilon * weight


def f_point_count(
    kind: LagrangianKind,
    alpha: ContactVector,
    beta: ContactVector,
    r_l: int = 0,
    crosses: int = 0,
) -> int:
    """Real-point count r that makes the cotangent moduli problem rigid.

    alpha is the prescribed-orbit profile, beta the free one, r_l the number
    of conjugate point pairs.  The dimension equation, with n = dim L and
    v = |alpha| + |beta| punctures,
    (n-1)r + 2(n-1)r_L + 2(n-1)|alpha| = 2v + eps(n-1)(I(alpha)+I(beta)) + n-3,
    solved for r (:func:`_point_count` gives all but the last term):

        r = (2|beta| - 2(n-2)|alpha| + n-3) / (n-1) + eps(Ia+Ib) - 2 r_L

    Each of ``crosses`` imposed double points takes two more; a negative
    count raises ValueError, and r < 0 NegativeDimension."""
    return _f_point_count(kind, alpha.counts, beta.counts, r_l, crosses)


def _f_point_count(kind: LagrangianKind, alpha: tuple[int, ...], beta: tuple[int, ...], r_l: int, crosses: int) -> int:
    """:func:`f_point_count` of the profiles with the canonical counts
    ``alpha`` and ``beta``, which a table row's key is checked by."""
    if r_l < 0 or crosses < 0:
        raise ValueError("conjugate pair and cross counts must be >= 0")
    r = _point_count(kind, sum(beta), _weight(alpha) + _weight(beta), sum(alpha)) - 2 * r_l - 2 * crosses
    if r < 0:
        marks = f", crosses={crosses}" if crosses else ""
        raise NegativeDimension(
            f"no non-negative real-point count for {kind.value}, alpha={_format(alpha)}, beta={_format(beta)}, r_L={r_l}{marks}"
        )
    return r
