"""Invariant assembly, congruence and sign validators, bounds."""

import math
import tracemalloc

import pytest

from welschinger import (
    ContactVector,
    DecoratedTree,
    FKey,
    GeometryKind,
    InadmissiblePair,
    LedgerRow,
    RelativeKey,
    RuledSurfaceClass,
    TreeFamily,
    UnknownInvariant,
    UnresolvableFKey,
    admissible_real_counts,
    builtin_f_engine,
    builtin_relative_table,
    canonical_form,
    check_congruence,
    check_sign_law,
    chi,
    chi_polynomial,
    enumerate_decorated_trees,
    enumerate_trees,
    multiplicity,
)
from welschinger import relative
from welschinger.assembly import _vertex_factors, check_admissible
from welschinger.trees import FAMILY_OF, pair_condition_count
from welschinger.verification import GOLDEN_VALUES, gromov_witten_clause, kontsevich_count

G = GeometryKind


@pytest.mark.parametrize(
    "geometry,d,r,value",
    [(g, d, r, v) for g, table in GOLDEN_VALUES.items() for (d, r), v in table.items()],
)
def test_golden_values(geometry, d, r, value):
    assert chi(geometry, d, r).value == value


def test_ledger_reconstructs_value():
    result = chi(G.PROJECTIVE_PLANE, 7, 2)
    assert len(result.ledger) == 5
    total = 0
    for row in result.ledger:
        product = row.sign * row.assignment_count * row.multiplicity * row.f_value
        for factor in row.relative_factors:
            product *= factor
        assert product == row.contribution
        total += row.contribution
    assert total == result.value == 11776


def test_zero_invariant_with_zero_factor_keeps_row():
    result = chi(G.ELLIPSOID_QUADRIC3, 6, 1)
    assert result.value == 0
    assert len(result.ledger) == 1
    assert result.ledger[0].relative_factors == (0,)


def test_threefold_vertex_with_too_few_pairs_is_unknown():
    # a vertex whose pairs do not make its 3-fold curve rigid has no count:
    # these (d, 1) printed 0 from an empty bidegree sum
    for d in (14, 18, 22, 26):
        with pytest.raises(UnknownInvariant, match="count is not defined"):
            chi(G.ELLIPSOID_QUADRIC3, d, 1)
    # too many pairs still give a zero term, so the goldens stand
    values = {(d, r): chi(G.ELLIPSOID_QUADRIC3, d, r).value for d, r in ((2, 1), (6, 1), (10, 1))}
    assert values == {(2, 1): -1, (6, 1): 0, (10, 1): -896}


def test_zero_invariant_with_no_trees():
    result = chi(G.ELLIPSOID_QUADRIC2, 2, 1)
    assert result.value == 0 and result.ledger == ()


def test_chi_deterministic():
    a = chi(G.PROJECTIVE_PLANE, 8, 1)
    b = chi(G.PROJECTIVE_PLANE, 8, 1)
    assert a.to_json_dict() == b.to_json_dict()


def test_the_f_engine_is_passed_by_keyword_only():
    # the relative counts take no override, and f_engine is keyword-only, so
    # a table passed positionally is refused, never read as the F engine
    table, engine = builtin_relative_table(), builtin_f_engine()
    with pytest.raises(TypeError):
        chi(G.PROJECTIVE_PLANE, 1, 0, table)
    with pytest.raises(TypeError):
        chi_polynomial(G.PROJECTIVE_PLANE, 1, None, table, engine)
    assert chi(G.PROJECTIVE_PLANE, 1, 0, f_engine=engine).value == chi(G.PROJECTIVE_PLANE, 1, 0).value


def test_admissible_real_counts():
    assert list(admissible_real_counts(G.PROJECTIVE_PLANE, 5)) == [0, 2, 4, 6, 8, 10, 12, 14]
    assert list(admissible_real_counts(G.ELLIPSOID_QUADRIC2, 2)) == [1, 3, 5, 7]
    assert list(admissible_real_counts(G.ELLIPSOID_QUADRIC3, 10)) == [1, 3, 5, 7, 9, 11, 13, 15]
    assert list(admissible_real_counts(G.ELLIPSOID_QUADRIC3, 3)) == []


def test_admissible_real_counts_builds_no_list():
    # the plane admits 1,500,000 values of r in degree 10^6
    tracemalloc.start()
    try:
        counts = admissible_real_counts(G.PROJECTIVE_PLANE, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (len(counts), counts[0], counts[-1]) == (1_500_000, 1, 2_999_999)
    assert peak < 1 << 20


def test_check_admissible_builds_no_list_of_counts():
    # quadric2 admits 2,000,000 values of r in degree 10^6: as a list, 81 MB
    tracemalloc.start()
    try:
        check_admissible(G.ELLIPSOID_QUADRIC2, 10**6, 3_999_999)
        with pytest.raises(InadmissiblePair, match=r"^\(quadric2, d=1000000, r=0\) is not an admissible pair$"):
            check_admissible(G.ELLIPSOID_QUADRIC2, 10**6, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_inadmissible_pairs():
    with pytest.raises(InadmissiblePair):
        chi(G.PROJECTIVE_PLANE, 5, 1)
    with pytest.raises(InadmissiblePair):
        chi(G.ELLIPSOID_QUADRIC2, 2, 2)
    with pytest.raises(InadmissiblePair):
        chi(G.ELLIPSOID_QUADRIC3, 4, 0)  # a real point is required
    with pytest.raises(InadmissiblePair):
        chi(G.ELLIPSOID_QUADRIC3, 5, 1)  # odd degree


def test_no_degree_below_one_is_in_the_domain():
    # alone, the dimension equation would admit r = 0 over the 3-quadric at d = 0
    for geometry in G:
        family = FAMILY_OF[geometry]
        for d in (-2, -1, 0):
            assert not family.real_point_counts(d) and not admissible_real_counts(geometry, d)
            poly = chi_polynomial(geometry, d)
            assert (poly.coefficients, poly.unavailable) == ({}, {})
            for r in range(-1, 4):
                message = rf"^\({geometry.value}, d={d}, r={r}\) is not an admissible pair$"
                with pytest.raises(InadmissiblePair, match=message):
                    pair_condition_count(family, d, r)
                with pytest.raises(InadmissiblePair, match=message):
                    chi(geometry, d, r)


def test_plane_cubics_follow_welschinger_law():
    """A plane cubic through r real points and s = (8 - r) / 2 conjugate pairs
    has chi^3_r = 8 - 2s (Welschinger, Invariants of real symplectic
    4-manifolds and lower bounds in real enumerative geometry, Invent. Math.
    162 (2005)): r = 0, 2, 4, 6, 8 give 0, 2, 4, 6, 8."""
    for r in range(0, 9, 2):
        s = (8 - r) // 2
        assert chi(G.PROJECTIVE_PLANE, 3, r).value == 8 - 2 * s == r


def test_missing_tables_abort_with_tree_context():
    # the r=2 invariant of the degree-4 threefold needs a two-pair cotangent
    # value outside the curated closure
    with pytest.raises(UnresolvableFKey, match="tree"):
        chi(G.ELLIPSOID_QUADRIC3, 4, 2)
    # degree 9 needs plane relative invariants beyond the curated range
    with pytest.raises((UnknownInvariant, UnresolvableFKey)):
        chi(G.PROJECTIVE_PLANE, 9, 0)


def _eager_chi(geometry, d, r):
    """chi as a sum over the whole enumeration, every tree decorated and
    validated before the first lookup: the value and ledger, or the type and
    message of the miss at the first tree in enumeration order whose key is
    outside the tables."""
    engine, table = builtin_f_engine(), builtin_relative_table()
    rows = []
    for cls in enumerate_trees(FAMILY_OF[geometry], d, r):
        for twc in cls.variants:
            tree = twc.tree
            label = canonical_form(tree).decode()
            try:
                f_value = engine.value(FKey(geometry.lagrangian, *map(ContactVector, tree.root_counts)))
                factors = _vertex_factors(geometry, tree, table)
            except (UnknownInvariant, UnresolvableFKey) as exc:
                return type(exc), f"{exc} [required by tree {label}]"
            mult, sign = multiplicity(tree), tree.sign_factor()
            contribution = sign * twc.assignment_count * mult * f_value * math.prod(factors)
            rows.append(LedgerRow(label, twc.assignment_count, mult, sign, f_value, tuple(factors), contribution))
    return sum(row.contribution for row in rows), tuple(rows)


def test_vertex_factors_agree_with_n_sigma_of_each_vertex_key():
    # _vertex_factors looks up count tuples; each vertex's RelativeKey, built
    # with its weight check, must give the same value or the same miss
    table, outcomes = builtin_relative_table(), {"value": 0, "miss": 0}
    for geometry in (G.PROJECTIVE_PLANE, G.ELLIPSOID_QUADRIC2):
        for d in range(1, 11):
            for r in admissible_real_counts(geometry, d):
                for cls in enumerate_trees(FAMILY_OF[geometry], d, r):
                    for twc in cls.variants:
                        tree, shape = twc.tree, twc.tree.shape
                        want = []
                        for v in shape.odd_vertices:
                            alpha = ContactVector.e(shape.root_edges[v]) if tree.is_plus(v) else ContactVector.zero()
                            free = [k for _, k in shape.adjacency[v]]  # the vertex's edges less its prescribed one
                            if alpha:
                                free.remove(shape.root_edges[v])
                            beta = ContactVector(tuple(free.count(i) for i in range(1, max(free, default=0) + 1)))
                            surface = RuledSurfaceClass(geometry.surface_degree, shape.genus[v], shape.k_s[v])
                            key = RelativeKey(surface, alpha, beta)
                            try:
                                want.append(table.n_sigma(key))
                            except UnknownInvariant as exc:
                                want = (UnknownInvariant, str(exc))
                                break
                        try:
                            got = _vertex_factors(geometry, tree, table)
                            outcomes["value"] += 1
                        except UnknownInvariant as exc:
                            got = (type(exc), str(exc))
                            outcomes["miss"] += 1
                        assert got == want, canonical_form(tree)
    assert outcomes == {"value": 1535, "miss": 407}


def test_three_quadric_goldens_sum_n_three_over_each_rigid_vertex(monkeypatch):
    # a 3-fold vertex holding the 2g - 1 - [plus] pairs (1 - [plus] at g = 0)
    # that make its curves rigid sums n_three over its g + 1 bidegrees, looked
    # up through relative's module global, so a wrapper there sees each term;
    # the 3-fold path reads no relative table, so a lookup that raises is
    # never reached
    calls = []
    n_three = relative.n_three
    monkeypatch.setattr(relative, "n_three", lambda *args: calls.append(args[:2]) or n_three(*args))

    def unread(*args):
        raise AssertionError(f"the 3-fold path read the relative table at {args}")

    monkeypatch.setattr(relative.RelativeInvariantTable, "count", unread)
    want_calls = 0
    for (d, r), value in GOLDEN_VALUES[G.ELLIPSOID_QUADRIC3].items():
        assert chi(G.ELLIPSOID_QUADRIC3, d, r).value == value
        for cls in enumerate_trees(TreeFamily.THREE_SPHERICAL, d, r):
            for twc in cls.variants:
                tree, shape = twc.tree, twc.tree.shape
                for v in shape.odd_vertices:
                    g = shape.genus[v]
                    if tree.f_size(v) == (2 * g - 1 if g else 1) - tree.is_plus(v):
                        want_calls += g + 1
    assert len(calls) == want_calls == 6  # (2, 1): the pure fibre; (10, 1): one g = 4 vertex


def test_chi_equals_the_sum_over_the_whole_enumeration():
    outcomes = {"value": 0, "miss": 0}
    for geometry in G:
        for d in range(1, 11):
            for r in admissible_real_counts(geometry, d):
                try:
                    result = chi(geometry, d, r)
                    got = result.value, result.ledger
                    outcomes["value"] += 1
                except (UnknownInvariant, UnresolvableFKey) as exc:
                    got = type(exc), str(exc)
                    outcomes["miss"] += 1
                assert got == _eager_chi(geometry, d, r), (geometry, d, r)
    assert outcomes == {"value": 34, "miss": 185}


def test_a_miss_validates_only_the_trees_up_to_the_failing_shape(monkeypatch):
    validated = []
    validate = DecoratedTree.validate
    monkeypatch.setattr(DecoratedTree, "validate", lambda tree: validated.append(tree) or validate(tree))
    with pytest.raises(UnknownInvariant, match=r"^N4\^\{2e\+f\}\(e1, 0\) is outside the curated table \[required by tree"):
        chi(G.PROJECTIVE_PLANE, 9, 2)
    stopped = len(validated)
    assert 0 < stopped < len(enumerate_decorated_trees(TreeFamily.PROJECTIVE, 9, 2)) == 10


def test_chi_polynomial_examples():
    poly = chi_polynomial(G.ELLIPSOID_QUADRIC2, 2, 7)
    assert poly.coefficients == {1: 0, 3: 2, 5: 4, 7: 6}
    assert poly.unavailable == {}

    poly = chi_polynomial(G.PROJECTIVE_PLANE, 6, 3)
    assert poly.coefficients == {1: 1024, 3: 1536}

    poly = chi_polynomial(G.PROJECTIVE_PLANE, 7, 2)
    assert poly.coefficients == {0: -14336, 2: 11776}


def test_chi_polynomial_raises_below_its_least_real_point_count():
    # the bound poly reports is chi_polynomial's own; an empty domain stays an empty polynomial
    for geometry, d, r_max in ((G.ELLIPSOID_QUADRIC3, 2, 0), (G.PROJECTIVE_PLANE, 5, -3), (G.PROJECTIVE_PLANE, 6, 0)):
        message = rf"^{geometry.value} has no admissible real-point count <= {r_max} in degree {d}$"
        with pytest.raises(InadmissiblePair, match=message):
            chi_polynomial(geometry, d, r_max)
    assert chi_polynomial(G.ELLIPSOID_QUADRIC3, 2, 1).coefficients == {1: -1}
    assert chi_polynomial(G.PROJECTIVE_PLANE, 5, 0).coefficients == {0: 64}
    assert chi_polynomial(G.ELLIPSOID_QUADRIC3, 3, -3) == chi_polynomial(G.ELLIPSOID_QUADRIC3, 3)


def test_invariants_bounded_by_gromov_witten_counts():
    # a Welschinger invariant is a signed count of the real curves among the
    # N_d complex ones through the points
    assert [kontsevich_count(d) for d in range(1, 7)] == [1, 1, 12, 620, 87304, 26312976]
    checked = 0
    for geometry in (G.PROJECTIVE_PLANE, G.ELLIPSOID_QUADRIC2):
        for d in range(1, 9):
            for r, value in chi_polynomial(geometry, d).coefficients.items():
                assert gromov_witten_clause(geometry, d, value).passed, (geometry, d, r, value)
                checked += 1
    assert checked == 31
    # N_4 = 620 of the plane: a wrong parity and a value beyond the count fail
    assert gromov_witten_clause(G.PROJECTIVE_PLANE, 4, -620).passed
    assert not gromov_witten_clause(G.PROJECTIVE_PLANE, 4, 1).passed
    assert not gromov_witten_clause(G.PROJECTIVE_PLANE, 4, 622).passed
    # no N_d is known over the 3-quadric: no clause, as check_sign_law gives none where no law applies
    for (d, r), value in GOLDEN_VALUES[G.ELLIPSOID_QUADRIC3].items():
        assert gromov_witten_clause(G.ELLIPSOID_QUADRIC3, d, value) is None
    # no N_d below degree 1: the recursions raise, and no clause passes for want of a count
    for d in (0, -3):
        with pytest.raises(ValueError, match="^degree must be >= 1$"):
            kontsevich_count(d)
    for geometry in (G.PROJECTIVE_PLANE, G.ELLIPSOID_QUADRIC2):
        with pytest.raises(ValueError):
            gromov_witten_clause(geometry, 0, 0)


def test_chi_polynomial_reports_unavailable():
    # degree 9 needs relative invariants beyond the curated range at every r
    poly = chi_polynomial(G.PROJECTIVE_PLANE, 9, 2)
    assert poly.coefficients == {}
    assert set(poly.unavailable) == {0, 2}


def test_congruence_examples():
    clauses = check_congruence(G.PROJECTIVE_PLANE, 7, 0, -14336)
    required = {c.name: c.modulus for c in clauses}
    assert required["pair-gap"] == 512 and required["pair-gap-aligned"] == 1024
    assert all(c.passed for c in clauses)

    clauses = check_congruence(G.ELLIPSOID_QUADRIC3, 10, 1, -896)
    assert [c.modulus for c in clauses] == [64]
    assert all(c.passed for c in clauses)

    clauses = check_congruence(G.ELLIPSOID_QUADRIC2, 5, 1, 26880)
    required = {c.name: c.modulus for c in clauses}
    assert required["pair-gap"] == 256
    assert "pair-gap-aligned" not in required  # 26880 = 2^8 * 105 is sharp
    assert all(c.passed for c in clauses)


def test_three_quarter_gap_is_the_pair_gap_over_the_three_quadric():
    # 2^(r_X - r) | chi when r < r_X, as the law 2^(3(d - 2r)/4) | chi when
    # 6r + 1 <= 3d was first written
    pairs = [(d, r) for d in range(1, 400) for r in admissible_real_counts(G.ELLIPSOID_QUADRIC3, d)]
    assert len(pairs) == 29_900
    for d, r in pairs:
        want = [1 << 3 * (d - 2 * r) // 4] if 6 * r + 1 <= 3 * d else []
        assert [c.modulus for c in check_congruence(G.ELLIPSOID_QUADRIC3, d, r, 0)] == want, (d, r)


def test_congruence_failure_detected():
    assert not all(c.passed for c in check_congruence(G.PROJECTIVE_PLANE, 7, 0, -14336 + 2))


def test_all_goldens_pass_congruence_and_sign():
    for geometry, table in GOLDEN_VALUES.items():
        for (d, r), value in table.items():
            assert all(c.passed for c in check_congruence(geometry, d, r, value))
            sign = check_sign_law(geometry, d, r, value)
            assert sign is None or sign.passed


def test_sign_law_examples():
    assert check_sign_law(G.PROJECTIVE_PLANE, 7, 0, -14336).passed
    assert check_sign_law(G.ELLIPSOID_QUADRIC2, 4, 1, -256).passed
    assert check_sign_law(G.ELLIPSOID_QUADRIC3, 6, 1, 0).passed
    assert not check_sign_law(G.PROJECTIVE_PLANE, 7, 0, 14336).passed
    assert not check_sign_law(G.ELLIPSOID_QUADRIC3, 10, 1, 896).passed
    # not applicable beyond one real point
    assert check_sign_law(G.PROJECTIVE_PLANE, 7, 2, 11776) is None


@pytest.mark.parametrize(
    "geometry,d,r",
    [(G.PROJECTIVE_PLANE, 5, 1), (G.ELLIPSOID_QUADRIC2, 2, 2), (G.ELLIPSOID_QUADRIC2, 2, 0), (G.ELLIPSOID_QUADRIC3, 5, 1)],
)
def test_laws_reject_a_pair_outside_the_domain(geometry, d, r):
    # each geometry raises as chi does, with no clause for an undefined value;
    # no pair here is in the tree family's domain, and trees names it as chi does
    message = rf"^\({geometry.value}, d={d}, r={r}\) is not an admissible pair$"
    with pytest.raises(InadmissiblePair, match=message):
        chi(geometry, d, r)
    with pytest.raises(InadmissiblePair, match=message):
        enumerate_trees(FAMILY_OF[geometry], d, r)
    with pytest.raises(InadmissiblePair, match=message):
        check_congruence(geometry, d, r, 5)
    with pytest.raises(InadmissiblePair, match=message):
        check_sign_law(geometry, d, r, 5)


def test_public_names_resolve_once():
    import welschinger

    assert all(hasattr(welschinger, name) for name in welschinger.__all__)
    assert len(set(welschinger.__all__)) == len(welschinger.__all__)
    assert "Clause" in welschinger.__all__
    assert not {"CongruenceReport", "SignReport"} & set(dir(welschinger))


def test_package_exports_are_the_module_lists():
    # each public name is written once, in its module's __all__
    import welschinger
    from welschinger import assembly, contact, cotangent, errors, relative, trees, verification

    modules = (assembly, contact, cotangent, errors, relative, trees, verification)
    assert welschinger.__all__ == [name for module in modules for name in module.__all__]
    for module in modules:
        assert all(getattr(welschinger, name) is getattr(module, name) for name in module.__all__)


def test_json_uses_decimal_strings_beyond_int64():
    from welschinger.assembly import _json_int

    assert _json_int(2**62) == 2**62
    assert _json_int(2**63) == str(2**63)
    assert _json_int(-(2**63)) == -(2**63)
    assert _json_int(-(2**63) - 1) == str(-(2**63) - 1)
