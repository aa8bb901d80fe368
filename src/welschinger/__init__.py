"""Exact Welschinger invariants of the plane and the ellipsoid quadrics.

The invariant chi^d_r is a signed count of real rational curves of degree d
through r real points and the complementary number of conjugate point pairs.
This package computes it by enumerating the decorated trees that encode
two-stage limits of such curves under neck stretching along a real
Lagrangian (RP^2, S^2 or S^3), and combining curated relative curve counts
on ruled surfaces with open invariants of cotangent bundles.  Everything is
arbitrary-precision integer arithmetic; there is no floating point anywhere.
"""

from .assembly import (
    ChiPolynomial,
    ChiResult,
    Clause,
    LedgerRow,
    admissible_real_counts,
    check_congruence,
    check_sign_law,
    chi,
    chi_polynomial,
)
from .contact import (
    ContactVector,
    GeometryKind,
    LagrangianKind,
    f_point_count,
    genus_smooth,
)
from .cotangent import (
    FDerivation,
    FInvariantEngine,
    FKey,
    basis_f_engine,
    builtin_f_engine,
    f_invariant,
    reduce_key,
)
from .errors import (
    DimensionMismatch,
    EnumerationTooLarge,
    InadmissiblePair,
    InvalidDegreeRealPair,
    NegativeDimension,
    UnknownInvariant,
    UnresolvableFKey,
    WelschingerError,
)
from .relative import (
    RelativeInvariantTable,
    RelativeKey,
    RuledSurfaceClass,
    builtin_relative_table,
    n_three,
    point_count,
    quadric_count,
)
from .trees import (
    DecoratedTree,
    TreeClass,
    TreeFamily,
    TreeWithCount,
    assignment_count,
    canonical_form,
    enumerate_decorated_trees,
    enumerate_trees,
    m1_minus,
    m1_plus,
    m2_reconnection,
    multiplicity,
)
from .verification import run_all

__version__ = "0.1.0"

__all__ = [
    "ChiPolynomial",
    "ChiResult",
    "Clause",
    "ContactVector",
    "DecoratedTree",
    "DimensionMismatch",
    "EnumerationTooLarge",
    "FDerivation",
    "FInvariantEngine",
    "FKey",
    "GeometryKind",
    "InadmissiblePair",
    "InvalidDegreeRealPair",
    "LagrangianKind",
    "LedgerRow",
    "NegativeDimension",
    "RelativeInvariantTable",
    "RelativeKey",
    "RuledSurfaceClass",
    "TreeClass",
    "TreeFamily",
    "TreeWithCount",
    "UnknownInvariant",
    "UnresolvableFKey",
    "WelschingerError",
    "admissible_real_counts",
    "assignment_count",
    "basis_f_engine",
    "builtin_f_engine",
    "builtin_relative_table",
    "canonical_form",
    "check_congruence",
    "check_sign_law",
    "chi",
    "chi_polynomial",
    "enumerate_decorated_trees",
    "enumerate_trees",
    "f_invariant",
    "f_point_count",
    "genus_smooth",
    "m1_minus",
    "m1_plus",
    "m2_reconnection",
    "multiplicity",
    "n_three",
    "point_count",
    "quadric_count",
    "reduce_key",
    "run_all",
]
