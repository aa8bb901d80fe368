"""The packaged table of cotangent invariants F, loaded by
:func:`welschinger.cotangent.builtin_f_engine` and
:func:`welschinger.cotangent.basis_f_engine`.

A Python literal, so that loading it needs no ``json``: :func:`payload`
builds a new copy of the table, in the format of an ``--f-table`` override
file, which is its ``json.dumps``.  A row's ``basis`` marks the curated
basis, which the reduction rules derive every other row from.  The rows are
built on each call, not held by the module, so that a process keeps only
the checked entries.
"""


def payload():
    return {
        "version": 1,
        "entries": [
            {"kind": "sphere2", "alpha": [1], "beta": [], "r_l": 0, "crosses": 0, "value": 1, "basis": True, "source": "embedded cylinder over a prescribed simple geodesic"},
            {"kind": "sphere2", "alpha": [], "beta": [1], "r_l": 0, "crosses": 0, "value": 1, "basis": True, "source": "embedded cylinders over simple geodesics meet in at most two points"},
            {"kind": "sphere2", "alpha": [0, 1], "beta": [], "r_l": 0, "crosses": 0, "value": 2, "basis": False, "source": "derived: real-pair-to-cross on the double-orbit cylinder"},
            {"kind": "sphere2", "alpha": [], "beta": [0, 1], "r_l": 0, "crosses": 0, "value": 8, "basis": False, "source": "derived: two reduction steps from the cross-marked bases"},
            {"kind": "sphere2", "alpha": [2], "beta": [], "r_l": 0, "crosses": 0, "value": 2, "basis": False, "source": "derived: real-pair-to-cross on two prescribed simple orbits"},
            {"kind": "sphere2", "alpha": [1], "beta": [1], "r_l": 0, "crosses": 0, "value": 4, "basis": False, "source": "derived"},
            {"kind": "sphere2", "alpha": [], "beta": [2], "r_l": 0, "crosses": 0, "value": 6, "basis": False, "source": "derived"},
            {"kind": "sphere2", "alpha": [0, 1], "beta": [], "r_l": 0, "crosses": 1, "value": 1, "basis": True, "source": "unique double-orbit cylinder with an imposed double point"},
            {"kind": "sphere2", "alpha": [2], "beta": [], "r_l": 0, "crosses": 1, "value": 1, "basis": True, "source": "unique two-orbit cylinder with an imposed double point"},
            {"kind": "sphere2", "alpha": [1], "beta": [1], "r_l": 0, "crosses": 1, "value": 1, "basis": True, "source": "cross-marked count read off the r=5 reduction"},
            {"kind": "sphere2", "alpha": [], "beta": [2], "r_l": 0, "crosses": 1, "value": 1, "basis": True, "source": "cross-marked count read off the r=7 reduction"},
            {"kind": "sphere2", "alpha": [0, 1], "beta": [], "r_l": 1, "crosses": 0, "value": 0, "basis": True, "source": "pushing the conjugate pair to infinity leaves no two-stage limit"},
            {"kind": "sphere2", "alpha": [2], "beta": [], "r_l": 1, "crosses": 0, "value": 0, "basis": True, "source": "same degeneration argument as the double-orbit case"},
            {"kind": "sphere2", "alpha": [], "beta": [0, 1], "r_l": 0, "crosses": 2, "value": 0, "basis": True, "source": "a double-orbit cylinder has at most one double point to impose"},
            {"kind": "rp2", "alpha": [1], "beta": [], "r_l": 0, "crosses": 0, "value": 1, "basis": True, "source": "embedded cylinder over a prescribed simple geodesic"},
            {"kind": "rp2", "alpha": [], "beta": [1], "r_l": 0, "crosses": 0, "value": 1, "basis": False, "source": "derived (also direct: embedded cylinders meet at most once)"},
            {"kind": "rp2", "alpha": [0, 1], "beta": [], "r_l": 0, "crosses": 0, "value": 1, "basis": True, "source": "double-orbit cylinders meet in at most four points"},
            {"kind": "rp2", "alpha": [2], "beta": [], "r_l": 0, "crosses": 0, "value": 1, "basis": True, "source": "four-point intersection bound"},
            {"kind": "rp2", "alpha": [1], "beta": [1], "r_l": 0, "crosses": 0, "value": 1, "basis": True, "source": "four-point intersection bound"},
            {"kind": "rp2", "alpha": [], "beta": [2], "r_l": 0, "crosses": 0, "value": 1, "basis": True, "source": "four-point intersection bound"},
            {"kind": "rp2", "alpha": [], "beta": [0, 1], "r_l": 0, "crosses": 0, "value": 4, "basis": False, "source": "derived from the tangency-marked base"},
            {"kind": "rp2", "alpha": [0, 0, 1], "beta": [], "r_l": 0, "crosses": 0, "value": 2, "basis": False, "source": "derived"},
            {"kind": "rp2", "alpha": [], "beta": [0, 0, 1], "r_l": 0, "crosses": 0, "value": 12, "basis": False, "source": "derived"},
            {"kind": "rp2", "alpha": [1, 1], "beta": [], "r_l": 0, "crosses": 0, "value": 2, "basis": False, "source": "derived"},
            {"kind": "rp2", "alpha": [1], "beta": [0, 1], "r_l": 0, "crosses": 0, "value": 8, "basis": False, "source": "derived"},
            {"kind": "rp2", "alpha": [0, 1], "beta": [1], "r_l": 0, "crosses": 0, "value": 4, "basis": False, "source": "derived"},
            {"kind": "rp2", "alpha": [], "beta": [1, 1], "r_l": 0, "crosses": 0, "value": 24, "basis": False, "source": "derived"},
            {"kind": "rp2", "alpha": [3], "beta": [], "r_l": 0, "crosses": 0, "value": 2, "basis": False, "source": "derived"},
            {"kind": "rp2", "alpha": [2], "beta": [1], "r_l": 0, "crosses": 0, "value": 4, "basis": False, "source": "derived"},
            {"kind": "rp2", "alpha": [1], "beta": [2], "r_l": 0, "crosses": 0, "value": 6, "basis": False, "source": "derived"},
            {"kind": "rp2", "alpha": [], "beta": [3], "r_l": 0, "crosses": 0, "value": 8, "basis": False, "source": "derived"},
            {"kind": "rp2", "alpha": [0, 0, 1], "beta": [], "r_l": 0, "crosses": 1, "value": 1, "basis": True, "source": "unique triple-orbit cylinder with an imposed double point"},
            {"kind": "rp2", "alpha": [1, 1], "beta": [], "r_l": 0, "crosses": 1, "value": 1, "basis": True, "source": "unique mixed-orbit sphere with an imposed double point"},
            {"kind": "rp2", "alpha": [0, 1], "beta": [1], "r_l": 0, "crosses": 1, "value": 1, "basis": True, "source": "cross-marked count read off the r=4 reduction"},
            {"kind": "rp2", "alpha": [3], "beta": [], "r_l": 0, "crosses": 1, "value": 1, "basis": True, "source": "unique three-orbit sphere with an imposed double point"},
            {"kind": "rp2", "alpha": [2], "beta": [1], "r_l": 0, "crosses": 1, "value": 1, "basis": True, "source": "cross-marked count read off the r=4 reduction"},
            {"kind": "rp2", "alpha": [1], "beta": [2], "r_l": 0, "crosses": 1, "value": 1, "basis": True, "source": "cross-marked count read off the r=6 reduction"},
            {"kind": "rp2", "alpha": [], "beta": [3], "r_l": 0, "crosses": 1, "value": 1, "basis": True, "source": "cross-marked count read off the r=8 reduction"},
            {"kind": "rp2", "alpha": [], "beta": [0, 1], "r_l": 0, "crosses": 1, "value": 1, "basis": True, "source": "double cover of the simple cylinder deforms to one tangency-marked cylinder"},
            {"kind": "rp2", "alpha": [], "beta": [1], "r_l": 0, "crosses": 1, "value": 0, "basis": True, "source": "an embedded simple cylinder has no double point to impose"},
            {"kind": "rp2", "alpha": [0, 0, 1], "beta": [], "r_l": 1, "crosses": 0, "value": 0, "basis": True, "source": "pushing the conjugate pair to infinity leaves no two-stage limit"},
            {"kind": "rp2", "alpha": [1, 1], "beta": [], "r_l": 1, "crosses": 0, "value": 0, "basis": True, "source": "same degeneration argument"},
            {"kind": "rp2", "alpha": [3], "beta": [], "r_l": 1, "crosses": 0, "value": 0, "basis": True, "source": "same degeneration argument"},
            {"kind": "rp2", "alpha": [], "beta": [0, 0, 1], "r_l": 0, "crosses": 2, "value": 0, "basis": True, "source": "a triple-orbit cylinder has at most one double point"},
            {"kind": "rp2", "alpha": [1], "beta": [0, 1], "r_l": 0, "crosses": 2, "value": 0, "basis": True, "source": "total multiplicity three allows at most one double point"},
            {"kind": "rp2", "alpha": [], "beta": [1, 1], "r_l": 0, "crosses": 2, "value": 0, "basis": True, "source": "total multiplicity three allows at most one double point"},
            {"kind": "sphere3", "alpha": [1], "beta": [], "r_l": 0, "crosses": 0, "value": -1, "basis": True, "source": "spinor state of the real conic section through one real point"},
        ],
    }
