"""Every value the tables compute, and the bytes of two CLI outputs, pinned.

``tests/data/computed_values.json`` records chi^d_r for every (geometry, d,
r) that ``frontier --max-degree 16`` lists as computable: 19 plane, 12
2-quadric and 3 3-quadric values.  ``tests/data/output_digests.json`` records
the sha256 of the ``trees`` JSON and of the ``chi --format json --ledger``
output for every key of ``TREE_CLASS_COUNTS``, and one sha256 over the
outcome of chi at every admissible (geometry, d, r) with d <= 16, misses
included.  Changes to the code must reproduce both files exactly; the files
are never regenerated to make a change pass.  ``python
tests/test_computed_values.py`` writes both files from the current code.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

from welschinger import (
    TREE_CLASS_COUNTS,
    GeometryKind,
    WelschingerError,
    admissible_real_counts,
    check_congruence,
    check_sign_law,
    chi,
    chi_polynomial,
)
from welschinger.cli import main
from welschinger.verification import gromov_witten_clause

VALUES = Path(__file__).parent / "data" / "computed_values.json"
DIGESTS = Path(__file__).parent / "data" / "output_digests.json"
MAX_DEGREE = 16
_GEOMETRY = {g.value: g for g in GeometryKind}


def computed_values() -> dict:
    """chi_polynomial's coefficients for every geometry and d <= MAX_DEGREE,
    the values ``frontier`` lists as computable, keyed "geometry/d/r"."""
    return {
        f"{g.value}/{d}/{r}": value
        for g in GeometryKind
        for d in range(1, MAX_DEGREE + 1)
        for r, value in sorted(chi_polynomial(g, d).coefficients.items())
    }


def _cli_digest(*argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    assert code == 0, argv
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def chi_domain_digest() -> str:
    """sha256 over chi's outcome at every admissible (geometry, d, r) with
    d <= MAX_DEGREE, one line each: ``repr((geometry, d, r, value, ledger))``
    for a value, ``repr((geometry, d, r, exception type, message))`` for a
    miss; so every miss message is pinned byte for byte."""
    lines = []
    for g in GeometryKind:
        for d in range(1, MAX_DEGREE + 1):
            for r in admissible_real_counts(g, d):
                try:
                    result = chi(g, d, r)
                except WelschingerError as exc:
                    lines.append(repr((g, d, r, type(exc).__name__, str(exc))))
                else:
                    lines.append(repr((g, d, r, result.value, result.ledger)))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def output_digests() -> dict:
    digests = {"trees": {}, "chi_ledger": {}, "chi_domain": chi_domain_digest()}
    for family, counts in TREE_CLASS_COUNTS.items():
        g = family.geometry.value
        for d, r in sorted(counts):
            where = ("--geometry", g, "--degree", str(d), "--real-points", str(r))
            digests["trees"][f"{g}/{d}/{r}"] = _cli_digest("trees", *where)
            digests["chi_ledger"][f"{g}/{d}/{r}"] = _cli_digest("chi", *where, "--format", "json", "--ledger")
    return digests


def test_every_computed_value():
    expected = json.loads(VALUES.read_text())
    assert len(expected) == 34
    by_geometry = [key.split("/")[0] for key in expected]
    assert [by_geometry.count(g) for g in ("cp2", "quadric2", "quadric3")] == [19, 12, 3]
    for key, want in expected.items():
        g, d, r = key.split("/")
        assert chi(_GEOMETRY[g], int(d), int(r)).value == want, key


def test_every_computed_value_keeps_the_laws_that_apply_to_it():
    # the congruences, the sign law and the Gromov-Witten bound hold for each
    # pinned value, (cp2, 7, 4) = 36864 included: no law tells it from 54272
    clauses = 0
    for key, value in json.loads(VALUES.read_text()).items():
        g, d, r = key.split("/")
        geometry, d, r = _GEOMETRY[g], int(d), int(r)
        laws = [*check_congruence(geometry, d, r, value), check_sign_law(geometry, d, r, value), gromov_witten_clause(geometry, d, value)]
        for clause in filter(None, laws):
            assert clause.passed, (key, clause)
            clauses += 1
    assert clauses == 90


def test_output_digests():
    expected = json.loads(DIGESTS.read_text())
    assert [len(expected[k]) for k in ("trees", "chi_ledger")] == [15, 15]
    assert output_digests() == expected


if __name__ == "__main__":
    for path, payload in ((VALUES, computed_values()), (DIGESTS, output_digests())):
        path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")
