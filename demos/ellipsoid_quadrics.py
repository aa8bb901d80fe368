"""Invariants of the two ellipsoid quadrics.

The 2-dimensional ellipsoid carries curves of bidegree (d, d) through 4d - 1
points; the real locus is a sphere and the real points all live on it.  The
3-dimensional ellipsoid is the one closed case where a genuinely
3-dimensional count is available: curves of degree d (even) through r real
points and (3d - 2r)/4 conjugate pairs, signed by spinor states.
"""

from welschinger import (
    GeometryKind,
    admissible_real_counts,
    chi,
    chi_polynomial,
)

Q2 = GeometryKind.ELLIPSOID_QUADRIC2
Q3 = GeometryKind.ELLIPSOID_QUADRIC3


def surface_polynomials():
    print("2-dimensional ellipsoid (degree = multiple of the plane section):")
    for d in range(2, 6):
        r_max = 7 if d == 2 else 3
        poly = chi_polynomial(Q2, d, r_max=r_max)
        terms = ", ".join(f"r={r}: {v}" for r, v in sorted(poly.coefficients.items()))
        print(f"  d={d}:  {terms}")
    print()
    print("Degree 2 is fully computable: 2, 4 and 6 real conics through")
    print("3, 5 and 7 real points (plus conjugate pairs) on the sphere.")
    print()


def threefold_counts():
    print("3-dimensional ellipsoid (one real point, conjugate pairs otherwise):")
    for d in (2, 6, 10):
        result = chi(Q3, d, 1)
        print(f"  d={d:2}: chi = {result.value}")
    print()
    print("chi^10_1 = -896 guarantees 896 real rational curves of degree ten")
    print("through one real point and seven conjugate pairs; the sign says")
    print("every tree contribution carries the spinor state -1.")
    print()
    print(f"lower bound on real rational curves: |chi^10_1| = {abs(chi(Q3, 10, 1).value)}")
    print()


def admissibility():
    print("admissible real-point counts r per degree:")
    for geometry, ds in ((Q2, [2, 3]), (Q3, [2, 4, 6, 10])):
        for d in ds:
            counts = list(admissible_real_counts(geometry, d))
            print(f"  {geometry.value} d={d}: r in {counts or 'nothing (odd degree)'}")
    print()


if __name__ == "__main__":
    surface_polynomials()
    threefold_counts()
    admissibility()
