"""Signed counts of real rational plane curves, degree by degree.

chi^d_r counts real rational curves of degree d through r real points and
(3d - 1 - r)/2 conjugate pairs, each curve weighted by the parity of its
isolated real double points.  |chi^d_r| is a lower bound for the number of
such curves for every generic configuration.  This script prints the
low-degree coefficients, then opens up one computation to show the
contributing splitting trees.
"""

from welschinger import (
    GeometryKind,
    check_congruence,
    check_sign_law,
    chi,
    chi_polynomial,
    genus_smooth,
)

PLANE = GeometryKind.PROJECTIVE_PLANE


def polynomial_table():
    print("coefficients chi^d_r of the plane (degree 4 through 8)")
    print()
    for d in range(4, 9):
        poly = chi_polynomial(PLANE, d, r_max=3)
        terms = ", ".join(f"r={r}: {v}" for r, v in sorted(poly.coefficients.items()))
        print(f"  d={d}:  {terms or '(no computable coefficient)'}")
        for r, reason in sorted(poly.unavailable.items()):
            if r <= 3:
                print(f"         r={r} needs tables beyond the curated range")
    print()
    print("The degree-7 invariant is negative: through 10 generic conjugate")
    print("pairs of points there are at least 14336 real rational septics,")
    print("even though not a single point condition is real.")
    print()


def a_ledger():
    result = chi(PLANE, 7, 0)
    print(f"chi^7_0 = {result.value}, assembled from {len(result.ledger)} trees:")
    for row in result.ledger:
        factors = " * ".join(str(f) for f in row.relative_factors) or "1"
        print(
            f"  {row.contribution:>8} = ({row.sign:+d}) * {row.assignment_count} assignments"
            f" * multiplicity {row.multiplicity} * F={row.f_value} * N={factors}"
        )
    print()


def checks():
    print("divisibility and sign checks on the computed values:")
    for d, r in [(5, 0), (6, 1), (7, 0), (7, 2), (8, 1)]:
        value = chi(PLANE, d, r).value
        congruences = check_congruence(PLANE, d, r, value)
        sign = check_sign_law(PLANE, d, r, value)
        mods = [f"2^{c.modulus.bit_length() - 1}" for c in congruences]
        verdict = "ok" if all(c.passed for c in congruences) and (sign is None or sign.passed) else "FAIL"
        parity = "even" if genus_smooth(PLANE, d) % 2 == 0 else "odd"
        print(f"  d={d}, r={r}: chi={value:>8}; divisible by {', '.join(mods)}; genus {parity} -> {verdict}")
    print()


if __name__ == "__main__":
    polynomial_table()
    a_ledger()
    checks()
