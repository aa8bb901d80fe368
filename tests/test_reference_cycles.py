"""Computations free what they make when its last reference goes, not at the
next garbage collection: none of them leaves a reference cycle behind."""

import gc

import pytest

from welschinger import (
    GeometryKind,
    TreeFamily,
    UnknownInvariant,
    UnresolvableFKey,
    admissible_real_counts,
    basis_f_engine,
    builtin_f_engine,
    chi,
    chi_polynomial,
    enumerate_trees,
)
from welschinger import trees as trees_module


def _chi_up_to_degree_8():
    for geometry in GeometryKind:
        for d in range(1, 9):
            for r in admissible_real_counts(geometry, d):
                try:
                    chi(geometry, d, r)
                except (UnknownInvariant, UnresolvableFKey):
                    pass


def _derive_every_plain_key():
    engine = basis_f_engine()
    for key in builtin_f_engine().plain_keys():
        engine.derive(key, order_seed=3)


RUNS = {
    "chi-up-to-degree-8": _chi_up_to_degree_8,
    "plane-10-1-trees": lambda: enumerate_trees(TreeFamily.PROJECTIVE, 10, 1),
    "derive-from-the-basis": _derive_every_plain_key,
    "plane-8-1-json": lambda: trees_module.trees_to_json(enumerate_trees(TreeFamily.PROJECTIVE, 8, 1)),
    "quadric2-6-polynomial": lambda: chi_polynomial(GeometryKind.ELLIPSOID_QUADRIC2, 6),
}


@pytest.mark.parametrize("run", list(RUNS.values()), ids=list(RUNS))
def test_a_run_leaves_no_reference_cycle(run):
    # a first run loads the tables and imports what it needs; the second,
    # measured, builds its shapes again, with the collector off so that no
    # cycle is collected before it is counted
    run()
    trees_module._candidates.cache_clear()
    gc.collect()
    gc.disable()
    try:
        run()
        assert gc.collect() == 0
    finally:
        gc.enable()
        trees_module._candidates.cache_clear()
