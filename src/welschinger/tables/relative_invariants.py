"""The packaged table of relative counts on the ruled surfaces, loaded by
:func:`welschinger.relative.builtin_relative_table`.  It holds the classes
with a >= 2 only: a section class (a = 1) is computed, not curated.

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
            {"n": 2, "a": 2, "b": 1, "alpha": [], "beta": [1], "value": 93, "source": "degree-5/r=1 two-sphere ledger, first contribution (ruled-surface count of class 2e+f through 9 points)"},
        ],
    }
