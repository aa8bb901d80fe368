"""Regression fingerprint of tree enumeration and the admissible real-point counts.

``tests/data/tree_fingerprint.json`` records, for every valid (family, d, r)
with plane and 2-quadric degree at most 7 and 3-quadric degree at most 12,
the number of decorated trees, the sha256 of their sorted canonical forms
and the sorted (assignment_count, multiplicity) pairs, plus
``admissible_real_counts`` for every geometry up to degree 12.
``tests/data/tree_fingerprint_wide.json`` records the same per-tree data for
plane degrees 8, 9, 10 and 2-quadric degree 8.  Refactors of the enumerator
must reproduce both exactly; the files are never regenerated to make a
change pass.  ``python tests/test_tree_fingerprint.py [narrow|wide]`` prints
the fingerprint of the current code (narrow by default).
"""

import hashlib
import json
import sys
from pathlib import Path

from welschinger import (
    GeometryKind,
    InadmissiblePair,
    TreeFamily,
    admissible_real_counts,
    canonical_form,
    enumerate_decorated_trees,
    multiplicity,
)

DATA = Path(__file__).parent / "data" / "tree_fingerprint.json"
WIDE_DATA = Path(__file__).parent / "data" / "tree_fingerprint_wide.json"
DEGREES = {TreeFamily.PROJECTIVE: range(1, 8), TreeFamily.TWO_SPHERICAL: range(1, 8), TreeFamily.THREE_SPHERICAL: range(1, 13)}
WIDE_DEGREES = {TreeFamily.PROJECTIVE: range(8, 11), TreeFamily.TWO_SPHERICAL: range(8, 9)}
MAX_ADMISSIBLE_DEGREE = 12


def tree_fingerprint(degrees=DEGREES) -> dict:
    out = {}
    for family, ds in degrees.items():
        for d in ds:
            for r in range(0, 4 * d + 1):
                try:
                    twcs = enumerate_decorated_trees(family, d, r)
                except InadmissiblePair:
                    continue
                forms = sorted(canonical_form(t.tree) for t in twcs)
                out[f"{family.value}/{d}/{r}"] = {
                    "count": len(twcs),
                    "canonical_sha256": hashlib.sha256(b"\n".join(forms)).hexdigest(),
                    "counts": sorted([t.assignment_count, multiplicity(t.tree)] for t in twcs),
                }
    return out


def admissible_fingerprint() -> dict:
    return {
        f"{g.value}/{d}": list(admissible_real_counts(g, d))
        for g in GeometryKind
        for d in range(1, MAX_ADMISSIBLE_DEGREE + 1)
    }


def test_tree_fingerprint():
    expected = json.loads(DATA.read_text())["trees"]
    assert len(expected) == 136
    assert tree_fingerprint() == expected


def test_tree_fingerprint_wide():
    expected = json.loads(WIDE_DATA.read_text())["trees"]
    assert len(expected) == 57
    assert tree_fingerprint(WIDE_DEGREES) == expected


def test_admissible_real_counts_fingerprint():
    assert admissible_fingerprint() == json.loads(DATA.read_text())["admissible_real_counts"]


if __name__ == "__main__":
    if sys.argv[1:] == ["wide"]:
        payload = {"trees": tree_fingerprint(WIDE_DEGREES)}
    else:
        payload = {"trees": tree_fingerprint(), "admissible_real_counts": admissible_fingerprint()}
    print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
