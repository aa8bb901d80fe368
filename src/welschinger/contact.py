"""Contact vectors, Lagrangian/geometry kinds, smooth genus and the cotangent
dimension equation.

All quantities are exact integers.  A *contact vector* records a finite
multiset of contact orders: ``counts[i]`` is the number of contacts of order
``i + 1`` (orders are 1-based, storage is a trimmed tuple).  These vectors
play two roles throughout the package: tangency profiles of curves relative
to a divisor, and asymptotic-orbit profiles of punctured curves in a unit
cotangent bundle.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

from .errors import NegativeDimension, TorusPrescribedOrbit

__all__ = [
    "ContactVector",
    "LagrangianKind",
    "GeometryKind",
    "genus_smooth",
    "f_point_count",
]

_TERM_RE = re.compile(r"^(\d*)e(\d+)$")


@dataclass(frozen=True)
class ContactVector:
    """Sparse multiset of contact orders, canonical (trailing zeros trimmed).

    Equality and hashing act on the canonical form, so contact vectors can be
    used as dictionary keys.  ``size`` is the number of contacts, ``weight``
    the total contact order; ``weight >= size`` always holds.
    """

    counts: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        c = tuple(int(x) for x in self.counts)
        if any(x < 0 for x in c):
            raise ValueError("contact multiplicities must be non-negative")
        while c and c[-1] == 0:
            c = c[:-1]
        object.__setattr__(self, "counts", c)

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
        """Parse strings like ``"0"``, ``"e2"``, ``"2e1"`` or ``"e1+e2"``."""
        text = text.strip().replace(" ", "")
        if text in ("", "0"):
            return cls.zero()
        out = cls.zero()
        for term in text.split("+"):
            m = _TERM_RE.match(term)
            if m is None:
                raise ValueError(f"cannot parse contact term {term!r}")
            coeff = int(m.group(1)) if m.group(1) else 1
            out = out + cls.e(int(m.group(2)), coeff)
        return out

    def __getitem__(self, order: int) -> int:
        if order < 1:
            raise IndexError("contact orders are 1-based")
        return self.counts[order - 1] if order <= len(self.counts) else 0

    def __bool__(self) -> bool:
        return bool(self.counts)

    def __add__(self, other: "ContactVector") -> "ContactVector":
        n = max(len(self.counts), len(other.counts))
        return ContactVector(tuple(self[i] + other[i] for i in range(1, n + 1)))

    def __sub__(self, other: "ContactVector") -> "ContactVector":
        n = max(len(self.counts), len(other.counts))
        diff = tuple(self[i] - other[i] for i in range(1, n + 1))
        if any(x < 0 for x in diff):
            raise ValueError("contact vector subtraction went negative")
        return ContactVector(diff)

    @property
    def size(self) -> int:
        return sum(self.counts)

    @property
    def weight(self) -> int:
        return sum(i * c for i, c in enumerate(self.counts, start=1))

    def orders(self):
        """Yield the distinct orders with non-zero count."""
        for i, c in enumerate(self.counts, start=1):
            if c:
                yield i

    def __str__(self) -> str:
        if not self.counts:
            return "0"
        parts = []
        for i, c in enumerate(self.counts, start=1):
            if c == 1:
                parts.append(f"e{i}")
            elif c:
                parts.append(f"{c}e{i}")
        return "+".join(parts)


class LagrangianKind(Enum):
    """The six constant-curvature Lagrangians whose cotangent bundles occur."""

    SPHERE2 = "sphere2"
    RP2 = "rp2"
    SPHERE3 = "sphere3"
    RP3 = "rp3"
    TORUS2 = "torus2"
    TORUS3 = "torus3"

    @property
    def dimension(self) -> int:
        return 2 if self in (LagrangianKind.SPHERE2, LagrangianKind.RP2, LagrangianKind.TORUS2) else 3

    @property
    def is_sphere(self) -> bool:
        return self in (LagrangianKind.SPHERE2, LagrangianKind.SPHERE3)

    @property
    def is_projective(self) -> bool:
        return self in (LagrangianKind.RP2, LagrangianKind.RP3)

    @property
    def is_torus(self) -> bool:
        return self in (LagrangianKind.TORUS2, LagrangianKind.TORUS3)

    @property
    def epsilon(self) -> int:
        """Orbit-space weight in the dimension equation: 2 (sphere) or 1 (RP^n)."""
        if self.is_torus:
            raise ValueError("torus dimension bookkeeping carries no epsilon factor")
        return 2 if self.is_sphere else 1


class GeometryKind(Enum):
    """Ambient real symplectic manifolds with computable invariants.

    Each kind fixes the pairing constants of the degree-``delta`` class d
    (a multiple of the line / plane-section / hyperplane-section class):
    ``d^2`` and ``c1(X).d``.  The 3-dimensional quadric has no ``d^2``.
    """

    PROJECTIVE_PLANE = "cp2"
    ELLIPSOID_QUADRIC2 = "quadric2"
    ELLIPSOID_QUADRIC3 = "quadric3"

    @property
    def lagrangian(self) -> LagrangianKind:
        return _LAGRANGIAN_OF[self]

    def self_intersection(self, delta: int) -> int:
        if self is GeometryKind.PROJECTIVE_PLANE:
            return delta * delta
        if self is GeometryKind.ELLIPSOID_QUADRIC2:
            return 2 * delta * delta
        raise ValueError("no intersection pairing of 2-cycles in a 6-manifold")

    def chern_degree(self, delta: int) -> int:
        if self is GeometryKind.PROJECTIVE_PLANE:
            return 3 * delta
        if self is GeometryKind.ELLIPSOID_QUADRIC2:
            return 4 * delta
        return 3 * delta


_LAGRANGIAN_OF = {
    GeometryKind.PROJECTIVE_PLANE: LagrangianKind.RP2,
    GeometryKind.ELLIPSOID_QUADRIC2: LagrangianKind.SPHERE2,
    GeometryKind.ELLIPSOID_QUADRIC3: LagrangianKind.SPHERE3,
}


def genus_smooth(geometry: GeometryKind, delta: int) -> int:
    """Smooth genus g_d = (d^2 - c1.d + 2)/2 of the degree-``delta`` class."""
    if delta < 1:
        raise ValueError("degree must be >= 1")
    num = geometry.self_intersection(delta) - geometry.chern_degree(delta) + 2
    if num % 2:
        raise ValueError(f"odd numerator {num} in the smooth genus of degree {delta}")
    return num // 2


def f_point_count(
    kind: LagrangianKind,
    alpha: ContactVector,
    beta: ContactVector,
    r_l: int = 0,
) -> int:
    """Real-point count r that makes the cotangent moduli problem rigid.

    alpha is the prescribed-orbit profile, beta the free one, r_l the number
    of conjugate point pairs.  Solving the dimension equation
    (n-1)r + 2(n-1)r_L + 2(n-1)|alpha| = 2v + eps(n-1)(I(alpha)+I(beta)) + n-3
    for r gives:

        sphere, n=2:   r = 2|beta| + 2(Ia+Ib) - 1 - 2 r_L
        RP^2:          r = 2|beta| +   Ia+Ib  - 1 - 2 r_L
        sphere, n=3:   r = |beta| - |alpha| + 2(Ia+Ib) - 2 r_L
        RP^3:          r = |beta| - |alpha| +   Ia+Ib  - 2 r_L
        torus:         r = 2|beta| - 1 - 2 r_L  (n=2),  |beta| - 2 r_L  (n=3),
                       with alpha = 0 required.
    """
    if r_l < 0:
        raise ValueError("conjugate pair count must be >= 0")
    weight = alpha.weight + beta.weight
    if kind.is_torus:
        if alpha:
            raise TorusPrescribedOrbit("torus asymptotics cannot be prescribed (alpha must be 0)")
        if kind.dimension == 2:
            r = 2 * beta.size - 1 - 2 * r_l
        else:
            r = beta.size - 2 * r_l
    elif kind.dimension == 2:
        r = 2 * beta.size + kind.epsilon * weight - 1 - 2 * r_l
    else:
        r = beta.size - alpha.size + kind.epsilon * weight - 2 * r_l
    if r < 0:
        raise NegativeDimension(
            f"no non-negative real-point count for {kind.value}, alpha={alpha}, beta={beta}, r_L={r_l}"
        )
    return r
