"""Independent algebraic oracles for the curated relative invariants.

A rational curve in class e + b f on the degree-n ruled surface is a section
of P(O(n) + O) -> P1: a pair (U, V) of polynomials of degrees (n + b, b)
without common zeros, up to scale.  It meets the exceptional section
E = {V = 0} exactly at the zeros of V, with contact order the vanishing
order, and it passes through a fibre point (z, [a : b]) iff
b U(z) - a V(z) = 0, a linear condition on the coefficients.

This reduces every a = 1 table entry to classical elimination over Q:

* counts with no free multiple contact are nullspace computations
  (unique section iff the kernel is a line);
* one free double contact cuts a pencil by the discriminant of V
  (count = discriminant degree in the pencil parameter);
* a free triple contact or two free double contacts intersect a plane of
  polynomials with the locus of perfect cubes / perfect squares, counted
  by resultant elimination after splitting off the rational degenerate
  point where the leading coefficients vanish.

Bidegree-(a, 1) counts on the 2-quadric are graphs of degree-a rational
maps, again a nullspace computation.  Everything is exact rational
arithmetic; genericity of each random configuration is verified, not
assumed.

Two counts lie outside the section model and are checked by
Gromov-Witten theory instead.  The WDVV recursion for P1 x P1 gives every
curated 2-quadric count.  The Abramovich-Bertram formula then relates the
counts of the 2-quadric, which the degree-2 ruled surface deforms to, to
those of the ruled surface; it gives the class 2e + f count (93) from the
WDVV count 96 and the section-model count of e + 3f.
"""

import random
from math import comb

import pytest
import sympy as sp

from welschinger import ContactVector, RelativeKey, RuledSurfaceClass, builtin_relative_table, quadric_count
from welschinger.relative import _QUADRIC_COUNTS
from welschinger.verification import wdvv_quadric_count

z, t, s = sp.symbols("z t s")

CV = ContactVector


def _rationals(rng, count, span=60):
    values = rng.sample(range(-span, span), count)
    return [sp.Rational(v, rng.randint(1, 7)) for v in values]


def _distinct_rationals(rng, count):
    out = []
    while len(out) < count:
        for candidate in _rationals(rng, count - len(out)):
            if candidate not in out:
                out.append(candidate)
    return out


def _coeff_symbols(prefix, degree):
    return sp.symbols(f"{prefix}0:{degree + 1}")


def _poly(coeffs):
    return sum(c * z**i for i, c in enumerate(coeffs))


def _section_system(n, b, rng, points, prescribed):
    """Linear conditions on (U, V) of degrees (n+b, b): interpolation at
    ``points`` generic fibre points and vanishing of V to the prescribed
    orders at generic fixed base points.  Returns (U, V, unknowns, rows,
    fixed base points)."""
    u_syms = _coeff_symbols("u", n + b)
    v_syms = _coeff_symbols("v", b)
    U, V = _poly(u_syms), _poly(v_syms)
    unknowns = list(u_syms) + list(v_syms)
    total_fixed = len(prescribed)
    base = _distinct_rationals(rng, points + total_fixed)
    zs, fixed = base[:points], base[points:]
    rows = []
    for x in zs:
        a_val, b_val = _rationals(rng, 2)
        b_val = b_val if b_val != 0 else sp.Integer(1)
        rows.append(sp.expand(b_val * U.subs(z, x) - a_val * V.subs(z, x)))
    for x, order in zip(fixed, prescribed):
        expr = V
        for _ in range(order):
            rows.append(sp.expand(expr.subs(z, x)))
            expr = sp.diff(expr, z)
    return U, V, unknowns, rows, fixed


def _nullspace(rows, unknowns):
    matrix = sp.Matrix([[sp.Rational(row.coeff(u)) for u in unknowns] for row in rows])
    return matrix.nullspace()


def _substitute(expr, unknowns, vector):
    return sp.expand(expr.subs(dict(zip(unknowns, vector))))


def _assert_admissible_section(U, V, b, fixed, prescribed):
    """The solved section must realize the contact profile exactly."""
    assert sp.degree(V, z) == b
    assert sp.degree(sp.gcd(sp.Poly(U, z), sp.Poly(V, z)).as_expr(), z) <= 0
    remainder = sp.Poly(V, z)
    for x, order in zip(fixed, prescribed):
        for _ in range(order):
            quotient, rem = sp.div(remainder, sp.Poly(z - x, z))
            assert rem.is_zero
            remainder = quotient
        assert remainder.eval(x) != 0  # contact order exactly as prescribed
    # the free contacts left over must all be simple
    free = remainder
    assert sp.degree(sp.gcd(free, free.diff(z)).as_expr(), z) <= 0


def rigid_section_count(n, b, prescribed, free_simple, seed):
    """Count sections when every free contact is simple (expected 1)."""
    rng = random.Random(seed)
    points = (n + 2) + 2 * b - 1 - sum(prescribed)
    U, V, unknowns, rows, fixed = _section_system(n, b, rng, points, prescribed)
    kernel = _nullspace(rows, unknowns)
    assert len(kernel) == 1
    vec = list(kernel[0])
    u_val = _substitute(U, unknowns, vec)
    v_val = _substitute(V, unknowns, vec)
    _assert_admissible_section(u_val, v_val, b, fixed, prescribed)
    assert sp.degree(v_val, z) - sum(prescribed) == free_simple
    return 1


def pencil_double_root_count(n, b, fixed_simple, seed):
    """Count sections with one free double contact (pencil discriminant)."""
    rng = random.Random(seed)
    prescribed = [1] * fixed_simple
    points = (n + 2) + 2 * b - 1 - fixed_simple - 1
    U, V, unknowns, rows, fixed = _section_system(n, b, rng, points, prescribed)
    kernel = _nullspace(rows, unknowns)
    assert len(kernel) == 2
    u0, v0 = (_substitute(expr, unknowns, list(kernel[0])) for expr in (U, V))
    u1, v1 = (_substitute(expr, unknowns, list(kernel[1])) for expr in (U, V))
    v_t = sp.expand(v0 + t * v1)
    u_t = sp.expand(u0 + t * u1)
    # split off the prescribed simple factors so the discriminant sees only
    # the free part of the contact divisor
    free_part = sp.Poly(v_t, z)
    for x in fixed:
        free_part, rem = sp.div(free_part, sp.Poly(z - x, z))
        assert rem.is_zero
        # the prescribed contact must stay simple along the relevant members
        guard = sp.Poly(free_part.as_expr().subs(z, x), t)
        assert not guard.is_zero
    disc = sp.Poly(sp.discriminant(free_part.as_expr(), z), t)
    # degenerate members must not hide among the discriminant roots
    lead = sp.Poly(sp.LC(free_part, z), t)
    common_root = sp.Poly(sp.resultant(u_t, v_t, z), t)
    assert sp.degree(sp.gcd(disc, disc.diff(t)).as_expr(), t) <= 0
    assert sp.degree(sp.gcd(disc, lead).as_expr(), t) <= 0
    assert sp.degree(sp.gcd(disc, common_root).as_expr(), t) <= 0
    for x in fixed:
        guard = sp.Poly(free_part.as_expr().subs(z, x), t)
        assert sp.degree(sp.gcd(disc, guard).as_expr(), t) <= 0
    # the member at infinity of the pencil chart must not be a solution
    assert sp.discriminant(_strip_factors(v1, fixed), z) != 0
    return sp.degree(disc, t)


def _strip_factors(expr, roots):
    poly = sp.Poly(expr, z)
    for x in roots:
        poly, rem = sp.div(poly, sp.Poly(z - x, z))
        assert rem.is_zero
    return poly.as_expr()


def _plane_basis(n, b, points_count, seed):
    rng = random.Random(seed)
    U, V, unknowns, rows, _ = _section_system(n, b, rng, points_count, [])
    kernel = _nullspace(rows, unknowns)
    assert len(kernel) == 3
    vs = [_substitute(V, unknowns, list(vec)) for vec in kernel]
    return vs


def _strip_linear_power(poly, root):
    factor = sp.Poly([1, -root], s)
    while True:
        quotient, rem = sp.div(poly, factor)
        if not rem.is_zero:
            return poly
        poly = quotient


def plane_triple_root_count(seed):
    """Sections of the degree-4 surface, class e+3f, one free triple contact.

    The cubics V in a generic 2-plane with a triple root are the
    intersection of the plane with the locus of perfect cubes (the twisted
    cubic).  Writing V = A0 z^3 + A1 z^2 + A2 z + A3 with A_i affine-linear
    in the plane parameters (s, t), a triple root forces

        A1^2 - 3 A0 A2 = 0   and   A1^3 - 27 A0^2 A3 = 0,

    and the unique rational point with A0 = A1 = 0 is a degenerate
    intersection to be split off after the resultant elimination.
    """
    vs = _plane_basis(4, 3, 9, seed)
    v_st = sp.expand(vs[0] + s * vs[1] + t * vs[2])
    coeffs = [sp.expand(v_st.coeff(z, 3 - i)) for i in range(4)]
    a0, a1, a2, a3 = coeffs
    eq1 = sp.expand(a1**2 - 3 * a0 * a2)
    eq2 = sp.expand(a1**3 - 27 * a0**2 * a3)
    star = sp.solve([a0, a1], [s, t], dict=True)
    assert len(star) == 1
    s_star = star[0][s]
    elim = sp.Poly(sp.resultant(eq1, eq2, t), s)
    honest = _strip_linear_power(elim, s_star)
    assert sp.degree(sp.gcd(honest, honest.diff(s)).as_expr(), s) <= 0
    assert honest.eval(s_star) != 0
    return sp.degree(honest, s)


def plane_double_double_count(seed):
    """Sections of the degree-4 surface, class e+4f, two free double contacts.

    Quartics with two double roots are squares of quadratics; eliminating
    the square root from V = c (z^2 + q z + r)^2 against a generic 2-plane
    A0 z^4 + ... + A4 gives

        8 A0^2 A3 = A1 (4 A0 A2 - A1^2),   64 A0^3 A4 = (4 A0 A2 - A1^2)^2,

    again with the rational A0 = A1 = 0 point split off.
    """
    vs = _plane_basis(4, 4, 11, seed)
    v_st = sp.expand(vs[0] + s * vs[1] + t * vs[2])
    a = [sp.expand(v_st.coeff(z, 4 - i)) for i in range(5)]
    gap = sp.expand(4 * a[0] * a[2] - a[1] ** 2)
    eq1 = sp.expand(8 * a[0] ** 2 * a[3] - a[1] * gap)
    eq2 = sp.expand(64 * a[0] ** 3 * a[4] - gap**2)
    star = sp.solve([a[0], a[1]], [s, t], dict=True)
    assert len(star) == 1
    s_star = star[0][s]
    elim = sp.Poly(sp.resultant(eq1, eq2, t), s)
    honest = _strip_linear_power(elim, s_star)
    assert sp.degree(sp.gcd(honest, honest.diff(s)).as_expr(), s) <= 0
    assert honest.eval(s_star) != 0
    return sp.degree(honest, s)


def graph_count(a, seed):
    """Bidegree-(a, 1) curves on the 2-quadric through 2(a+1) - 1 points are
    graphs of degree-a maps; interpolation is a linear system."""
    rng = random.Random(seed)
    p_syms = _coeff_symbols("p", a)
    q_syms = _coeff_symbols("q", a)
    P, Q = _poly(p_syms), _poly(q_syms)
    unknowns = list(p_syms) + list(q_syms)
    rows = []
    for x in _distinct_rationals(rng, 2 * a + 1):
        w = sp.Rational(*(rng.randint(-40, 40), rng.randint(1, 9)))
        rows.append(sp.expand(P.subs(z, x) - w * Q.subs(z, x)))
    kernel = _nullspace(rows, unknowns)
    assert len(kernel) == 1
    p_val = _substitute(P, unknowns, list(kernel[0]))
    q_val = _substitute(Q, unknowns, list(kernel[0]))
    assert max(sp.degree(p_val, z), sp.degree(q_val, z)) == a
    assert sp.degree(sp.gcd(sp.Poly(p_val, z), sp.Poly(q_val, z)).as_expr(), z) <= 0
    return 1


def _table(n, b, alpha, beta):
    key = RelativeKey(RuledSurfaceClass(n, 1, b), alpha, beta)
    return builtin_relative_table().n_sigma(key)


RIGID_CASES = [
    # (n, b, prescribed orders, free simple contacts, alpha, beta)
    (4, 1, [], 1, CV.zero(), CV.e(1)),
    (4, 1, [1], 0, CV.e(1), CV.zero()),
    (4, 2, [2], 0, CV.e(2), CV.zero()),
    (4, 2, [], 2, CV.zero(), CV.e(1, 2)),
    (4, 2, [1], 1, CV.e(1), CV.e(1)),
    (4, 3, [1, 2], 0, CV((1, 1)), CV.zero()),
    (4, 3, [2], 1, CV.e(2), CV.e(1)),
    (4, 3, [3], 0, CV.e(3), CV.zero()),
    (4, 4, [2, 2], 0, CV.e(2, 2), CV.zero()),
    (2, 1, [], 1, CV.zero(), CV.e(1)),
    (2, 1, [1], 0, CV.e(1), CV.zero()),
    (2, 2, [2], 0, CV.e(2), CV.zero()),
    (2, 2, [], 2, CV.zero(), CV.e(1, 2)),
    (2, 2, [1], 1, CV.e(1), CV.e(1)),
    (2, 3, [], 3, CV.zero(), CV.e(1, 3)),
]


@pytest.mark.parametrize("n,b,prescribed,free,alpha,beta", RIGID_CASES)
def test_rigid_sections_match_table(n, b, prescribed, free, alpha, beta):
    for seed in (11, 17):
        assert rigid_section_count(n, b, prescribed, free, seed) == _table(n, b, alpha, beta) == 1


@pytest.mark.parametrize(
    "n,b,fixed_simple,alpha,beta",
    [
        (4, 2, 0, CV.zero(), CV.e(2)),
        (2, 2, 0, CV.zero(), CV.e(2)),
        (4, 3, 1, CV.e(1), CV.e(2)),
        (4, 3, 0, CV.zero(), CV((1, 1))),
    ],
)
def test_free_double_contacts_match_table(n, b, fixed_simple, alpha, beta):
    expected = _table(n, b, alpha, beta)
    for seed in (5, 23):
        assert pencil_double_root_count(n, b, fixed_simple, seed) == expected


def test_free_triple_contact_matches_table():
    expected = _table(4, 3, CV.zero(), CV.e(3))
    for seed in (7, 29):
        assert plane_triple_root_count(seed) == expected == 3


def test_two_free_double_contacts_match_table():
    expected = _table(4, 4, CV.zero(), CV.e(2, 2))
    for seed in (13, 31):
        assert plane_double_double_count(seed) == expected == 4


def test_prescribed_double_plus_free_simple_is_one():
    # the section model pins this entry to 1: V = c (z - z0)^2 (z - w) is
    # forced by eleven independent linear conditions
    assert _table(4, 3, CV.e(2), CV.e(1)) == 1
    for seed in (3, 41):
        assert rigid_section_count(4, 3, [2], 1, seed) == 1


def test_quadric_graphs():
    for a in (1, 3):
        for seed in (19, 37):
            assert graph_count(a, seed) == quadric_count(a, 1) == 1


def test_quadric_two_two_euler_count():
    # a generic pencil of bidegree-(2,2) curves has smooth genus-1 members;
    # its singular (hence rational) members are counted by the Euler number
    # of the blown-up total space: chi(quadric) + (2,2).(2,2) = 4 + 8
    chi_quadric = 4
    self_intersection = 2 * (2 * 2)
    assert quadric_count(2, 2) == chi_quadric + self_intersection == 12


def test_quadric_counts_match_the_wdvv_recursion():
    for (a, b), value in _QUADRIC_COUNTS.items():
        assert quadric_count(a, b) == wdvv_quadric_count(a, b) == value
    for a in (2, 3, 4):
        assert quadric_count(a, 0) == quadric_count(0, a) == wdvv_quadric_count(a, 0) == wdvv_quadric_count(0, a) == 0
    # the recursion is not visibly symmetric in (a, b); that it is, and that
    # it reproduces the published counts beyond the table, checks it
    for a in range(1, 5):
        for b in range(a):
            assert wdvv_quadric_count(a, b) == wdvv_quadric_count(b, a)
    assert [wdvv_quadric_count(*ab) for ab in ((2, 1), (1, 4), (3, 2), (4, 2), (3, 3))] == [1, 1, 96, 640, 3510]
    # no curve class is (0, 0) or has a negative coefficient: the recursion raises, never counts 0
    for ab in ((0, 0), (-1, 2), (2, -1)):
        with pytest.raises(ValueError, match="^bidegree must be nonzero with coefficients >= 0$"):
            wdvv_quadric_count(*ab)


def test_two_e_plus_f_count_from_abramovich_bertram():
    """Abramovich-Bertram (2001): N^{F0}_beta = sum_k C(beta.E + 2k, k) N^{F2}_{beta - kE}.

    The degree-2 ruled surface F2 deforms to F0 = P1 x P1 with e -> (1, 1)
    and f -> (0, 1), so the exceptional section E = e - 2f has
    (2e + f).E = 1 and (e + 3f).E = 3.  2e + f maps to (2, 3), e + 3f to
    (1, 4); 2e + f - 2E and e + 3f - E are both the multiple fibre 5f,
    which carries no irreducible curve.  A curve
    meeting E only in simple free contacts is counted by the table with
    beta = (beta.E) e1, so these are the absolute counts.
    """
    e_plus_3f = _table(2, 3, CV.zero(), CV.e(1, 3))  # section model: 1
    assert wdvv_quadric_count(1, 4) == e_plus_3f + comb(5, 1) * 0
    two_e_plus_f = wdvv_quadric_count(2, 3) - comb(3, 1) * e_plus_3f - comb(5, 2) * 0
    key = RelativeKey(RuledSurfaceClass(2, 2, 1), CV.zero(), CV.e(1))
    assert builtin_relative_table().n_sigma(key) == two_e_plus_f == 96 - 3 == 93
