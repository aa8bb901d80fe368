"""The packaged table of relative counts on the ruled surfaces, loaded by
:func:`welschinger.relative.builtin_relative_table`.

A Python literal, so that loading it needs no ``json``: :func:`payload`
builds a new copy of the table, in the format of an ``--invariant-table``
override file, which is its ``json.dumps``.  The rows are built on each
call, not held by the module, so that a process keeps only the checked
entries.
"""


def payload():
    return {
        "version": 1,
        "entries": [
            {"n": 4, "a": 1, "b": 1, "alpha": [], "beta": [1], "value": 1, "source": "degree-5/r=0 plane ledger, unique contribution"},
            {"n": 4, "a": 1, "b": 1, "alpha": [1], "beta": [], "value": 1, "source": "degree-5/r=2 plane ledger, unique contribution"},
            {"n": 4, "a": 1, "b": 2, "alpha": [0, 1], "beta": [], "value": 1, "source": "degree-6/r=3 plane ledger, second contribution"},
            {"n": 4, "a": 1, "b": 2, "alpha": [], "beta": [0, 1], "value": 2, "source": "degree-6/r=1 plane ledger, second contribution"},
            {"n": 4, "a": 1, "b": 2, "alpha": [], "beta": [2], "value": 1, "source": "degree-7/r=0 plane ledger, first contribution"},
            {"n": 4, "a": 1, "b": 2, "alpha": [1], "beta": [1], "value": 1, "source": "degree-7/r=2 plane ledger, fourth contribution"},
            {"n": 4, "a": 1, "b": 3, "alpha": [1, 1], "beta": [], "value": 1, "source": "degree-7/r=2 plane ledger, fifth contribution (divided by the prescribed-to-free ratio)"},
            {"n": 4, "a": 1, "b": 3, "alpha": [1], "beta": [0, 1], "value": 2, "source": "degree-7/r=2 plane ledger, fifth contribution"},
            {"n": 4, "a": 1, "b": 3, "alpha": [0, 1], "beta": [1], "value": 1, "source": "forced by the degree-7/r=0 total together with the fifth degree-7/r=2 contribution"},
            {"n": 4, "a": 1, "b": 3, "alpha": [], "beta": [1, 1], "value": 4, "source": "degree-7/r=0 plane ledger, second contribution"},
            {"n": 4, "a": 1, "b": 3, "alpha": [0, 0, 1], "beta": [], "value": 1, "source": "degree-7/r=2 plane ledger, third contribution (divided)"},
            {"n": 4, "a": 1, "b": 3, "alpha": [], "beta": [0, 0, 1], "value": 3, "source": "degree-7/r=2 plane ledger, third contribution"},
            {"n": 4, "a": 1, "b": 4, "alpha": [0, 2], "beta": [], "value": 1, "source": "degree-8/r=1 plane ledger, fourth contribution (divided)"},
            {"n": 4, "a": 1, "b": 4, "alpha": [], "beta": [0, 2], "value": 4, "source": "degree-8/r=1 plane ledger, fourth contribution"},
            {"n": 2, "a": 1, "b": 1, "alpha": [], "beta": [1], "value": 1, "source": "degree-3/r=1 two-sphere ledger"},
            {"n": 2, "a": 1, "b": 1, "alpha": [1], "beta": [], "value": 1, "source": "degree-3/r=3 two-sphere ledger"},
            {"n": 2, "a": 1, "b": 2, "alpha": [0, 1], "beta": [], "value": 1, "source": "degree-4/r=3 two-sphere ledger, second contribution (divided)"},
            {"n": 2, "a": 1, "b": 2, "alpha": [], "beta": [0, 1], "value": 2, "source": "degree-4/r=3 two-sphere ledger, second contribution"},
            {"n": 2, "a": 1, "b": 2, "alpha": [], "beta": [2], "value": 1, "source": "degree-4/r=1 two-sphere ledger"},
            {"n": 2, "a": 1, "b": 2, "alpha": [1], "beta": [1], "value": 1, "source": "degree-4/r=3 two-sphere ledger, third contribution"},
            {"n": 2, "a": 1, "b": 3, "alpha": [], "beta": [3], "value": 1, "source": "degree-5/r=1 two-sphere ledger, second contribution"},
            {"n": 2, "a": 2, "b": 1, "alpha": [], "beta": [1], "value": 93, "source": "degree-5/r=1 two-sphere ledger, first contribution (ruled-surface count of class 2e+f through 9 points)"},
        ],
    }
