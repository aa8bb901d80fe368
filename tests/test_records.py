"""The value semantics of the package's records (keys, ledger rows, results)
and the modules that importing the package costs."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from welschinger import (
    ChiPolynomial,
    Clause,
    ContactVector,
    GeometryKind,
    LagrangianKind,
    RelativeKey,
    RuledSurfaceClass,
    builtin_f_engine,
    chi,
)
from welschinger.contact import _Record
from welschinger.cotangent import FKey

CV = ContactVector
SRC = Path(__file__).resolve().parent.parent / "src"


def _key(r_l=1, crosses=2):
    return FKey(LagrangianKind.RP2, CV.e(2), CV((1,)), r_l, crosses)


def _records():
    result = chi(GeometryKind.PROJECTIVE_PLANE, 3, 2)
    return [
        CV.e(3),
        _key(),
        RelativeKey(RuledSurfaceClass(4, 1, 2), CV.e(2), CV.zero()),
        result.ledger[0],
        result,
        RuledSurfaceClass(2, 1, 3),
        Clause("pair-gap", 8, True),
        # a derivation with one pair-to-real step above a table leaf
        builtin_f_engine().derive(FKey(LagrangianKind.RP2, CV.zero(), CV.e(3), 1)),
    ]


def test_repr_lists_each_field_by_name():
    assert repr(_key()) == (
        "FKey(kind=<LagrangianKind.RP2: 'rp2'>, alpha=ContactVector(counts=(0, 1)), "
        "beta=ContactVector(counts=(1,)), r_l=1, crosses=2)"
    )
    assert repr(RelativeKey(RuledSurfaceClass(4, 1, 2), CV.e(2), CV.zero())) == (
        "RelativeKey(surface=RuledSurfaceClass(n=4, a=1, b=2), alpha=ContactVector(counts=(0, 1)), "
        "beta=ContactVector(counts=()))"
    )
    row = (
        "LedgerRow(tree=\"('projective', 3, 2, (0, None, ((1, (0, '-', 1), ()), (1, (0, '-', 1), ()), "
        "(1, (0, '-', 1), ()))))\", assignment_count=1, multiplicity=1, sign=1, f_value=2, "
        "relative_factors=(1, 1, 1), contribution=2)"
    )
    result = chi(GeometryKind.PROJECTIVE_PLANE, 3, 2)
    assert repr(result.ledger[0]) == row
    assert repr(result) == (
        f"ChiResult(geometry=<GeometryKind.PROJECTIVE_PLANE: 'cp2'>, d=3, r=2, value=2, ledger=({row},))"
    )


def test_records_equal_only_records_of_their_class():
    key = _key()
    assert key == _key() and key != _key(crosses=0)
    assert key != (key.kind, key.alpha, key.beta, key.r_l, key.crosses)
    assert CV((1, 2)) != (1, 2) and CV((1, 2)) != ((1, 2),)
    # same fields and values, another class
    class Surface(RuledSurfaceClass):
        pass

    assert Surface(4, 1, 2) != RuledSurfaceClass(4, 1, 2) and RuledSurfaceClass(4, 1, 2) != Surface(4, 1, 2)
    assert Surface(4, 1, 2) == Surface(4, 1, 2)


@pytest.mark.parametrize("record", _records(), ids=lambda record: type(record).__name__)
def test_equal_records_hash_equal_after_pickle_and_deepcopy(record):
    for twin in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record), copy.copy(record)):
        assert twin == record and hash(twin) == hash(record) and repr(twin) == repr(record)


def test_contact_vector_hashes_as_its_counts_in_a_tuple():
    # dict and set orders over contact vectors follow this hash
    assert hash(CV((0, 2, 0))) == hash(((0, 2),))


@pytest.mark.parametrize("record", _records(), ids=lambda record: type(record).__name__)
def test_fields_cannot_be_set_or_deleted(record):
    name = "counts" if isinstance(record, CV) else next(iter(vars(record)))
    with pytest.raises(AttributeError):
        setattr(record, name, 0)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.unknown = 0


def test_unchecked_constructors_and_cached_reads_keep_records_closed():
    # _canonical, _reduced and a cached property set their attributes past
    # the record's own refusal; what they make equals the checked record,
    # and outside writes are still refused
    vector = CV._canonical((0, 1))
    cached = FKey(LagrangianKind.RP2, CV.zero(), CV.e(3), 1)
    reduced = FKey._reduced(LagrangianKind.RP2, CV.zero(), CV.e(3), 1, 0, cached.r)
    assert vars(cached)["r"] == reduced.r == 2
    assert vector == CV.e(2) and reduced == cached and vars(reduced) == vars(cached)
    for record in (vector, reduced, cached):
        with pytest.raises(AttributeError):
            record.r = 0
        with pytest.raises(AttributeError):
            del record.r


def test_fields_are_the_positional_parameters_of_init():
    class Pair(_Record):
        def __init__(self, first, second=0):
            local = first + second  # a local variable is not a field
            object.__setattr__(self, "first", first)
            object.__setattr__(self, "second", local - first)

    assert Pair._fields == ("first", "second")
    assert repr(Pair(1, 2)).endswith(".Pair(first=1, second=2)")
    assert Pair(1, 2) != Pair(1, 3) and hash(Pair(1, 2)) == hash((1, 2))
    assert FKey._fields == ("kind", "alpha", "beta", "r_l", "crosses")


def test_each_polynomial_gets_its_own_unavailable_dict():
    a = ChiPolynomial(GeometryKind.PROJECTIVE_PLANE, 3, {})
    b = ChiPolynomial(GeometryKind.PROJECTIVE_PLANE, 3, {})
    a.unavailable[1] = "missing"
    assert b.unavailable == {}


def test_keyword_construction_and_defaults():
    key = FKey(kind=LagrangianKind.RP2, alpha=CV.zero(), beta=CV.e(1))
    assert key.r_l == key.crosses == 0
    assert key == FKey(LagrangianKind.RP2, CV.zero(), CV.e(1), 0, 0)
    assert CV() == CV.zero()
    with pytest.raises(TypeError):
        FKey(LagrangianKind.RP2)
    with pytest.raises(TypeError):
        RuledSurfaceClass(4, 1)


def test_import_loads_no_unneeded_modules():
    # the records are plain classes and the tables are read from a path
    code = (
        "import sys; before = set(sys.modules); import welschinger, welschinger.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "welschinger.cli" in added
    assert added.isdisjoint({"dataclasses", "inspect", "importlib.resources", "typing"})
