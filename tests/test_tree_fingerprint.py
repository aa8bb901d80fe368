"""Regression fingerprint of tree enumeration and the admissible real-point counts.

``tests/data/tree_fingerprint.json`` records, for every valid (family, d, r)
with plane and 2-quadric degree at most 7 and 3-quadric degree at most 12,
the number of decorated trees, the sha256 of their sorted canonical forms
and the sorted (assignment_count, multiplicity) pairs, plus
``admissible_real_counts`` for every geometry up to degree 12.  Refactors of
the enumerator must reproduce it exactly; the file is never regenerated to
make a change pass.  ``python tests/test_tree_fingerprint.py`` prints the
fingerprint of the current code.
"""

import hashlib
import json
from pathlib import Path

from welschinger import (
    GeometryKind,
    InvalidDegreeRealPair,
    TreeFamily,
    admissible_real_counts,
    canonical_form,
    enumerate_decorated_trees,
    multiplicity,
)

DATA = Path(__file__).parent / "data" / "tree_fingerprint.json"
MAX_DEGREE = {TreeFamily.PROJECTIVE: 7, TreeFamily.TWO_SPHERICAL: 7, TreeFamily.THREE_SPHERICAL: 12}
MAX_ADMISSIBLE_DEGREE = 12


def tree_fingerprint() -> dict:
    out = {}
    for family, top in MAX_DEGREE.items():
        for d in range(1, top + 1):
            for r in range(0, 4 * d + 1):
                try:
                    twcs = enumerate_decorated_trees(family, d, r)
                except InvalidDegreeRealPair:
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
        f"{g.value}/{d}": admissible_real_counts(g, d)
        for g in GeometryKind
        for d in range(1, MAX_ADMISSIBLE_DEGREE + 1)
    }


def test_tree_fingerprint():
    expected = json.loads(DATA.read_text())["trees"]
    assert len(expected) == 136
    assert tree_fingerprint() == expected


def test_admissible_real_counts_fingerprint():
    assert admissible_fingerprint() == json.loads(DATA.read_text())["admissible_real_counts"]


if __name__ == "__main__":
    payload = {"trees": tree_fingerprint(), "admissible_real_counts": admissible_fingerprint()}
    print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
