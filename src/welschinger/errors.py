"""Exception hierarchy.

Every computation in this package is exact; there is no notion of a partial
or approximate answer.  Whenever an input is outside the computable range the
functions raise one of the exceptions below instead of returning a default.
"""

__all__ = [
    "WelschingerError",
    "NegativeDimension",
    "InadmissiblePair",
    "EnumerationTooLarge",
    "UnknownInvariant",
    "DimensionMismatch",
    "UnresolvableFKey",
]


class WelschingerError(Exception):
    """Base class for all package errors."""


class NegativeDimension(WelschingerError):
    """No non-negative real-point count solves the dimension equation."""


class InadmissiblePair(WelschingerError):
    """(degree, real points) is outside the domain of the invariant (d < 1, no
    integer pair count r_X >= 0, or r = 0 over the 3-quadric), named by :meth:`of` in every layer."""

    @classmethod
    def of(cls, geometry, d: int, r: int) -> "InadmissiblePair":
        return cls(f"({geometry.value}, d={d}, r={r}) is not an admissible pair")


class EnumerationTooLarge(WelschingerError):
    """The candidate trees of a (family, degree) exceed the enumeration
    bound, :data:`welschinger.trees.CANDIDATE_BOUND`."""


class UnknownInvariant(WelschingerError):
    """A relative invariant key is outside the curated tables.

    This is a hard error by design: an unknown count must never be reported
    as zero.
    """


class DimensionMismatch(WelschingerError):
    """A relative invariant key has a negative point count.  Nothing in the
    package raises it: every valid key's point count is >= 0."""


class UnresolvableFKey(WelschingerError):
    """A cotangent invariant key cannot be reached from the curated bases."""
