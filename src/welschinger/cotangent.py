"""Open invariants of cotangent bundles: curated bases plus reduction rules.

F_{(r, r_L)}(alpha, beta) is the signed count of real rational curves in T*L
asymptotic to prescribed (alpha) and free (beta) pairs of Reeb orbits,
through r real points and r_L conjugate point pairs; the sign is the parity
of the isolated real double points (dim L = 2) or the spinor state
(dim L = 3).  The real-point count r is always the one forced by the
dimension equation, so it is no field of a key; a reduction step's children
take it from their rule, and a pair-to-real child moves one contact.

Two reduction rules resolve values from a small curated basis.  They are
written once, on count tuples, in :func:`_reduction`: it picks the rule that
applies to a key's (alpha, beta, r_L, crosses, r) and gives its
(coefficient, child) terms, each child the same five fields.

* pair-to-real (r_L >= 1):
      F_{(r, r_L)}(alpha, beta)
        = sum over orders k with beta_k > 0 of
          k * F_{(r, r_L - 1)}(alpha + e_k, beta - e_k)
  The coefficient is k alone, without a beta_k factor.

* real-pair-to-cross (r >= 2, r_L = 0): colliding two real points trades
  them for either an imposed double point (a "cross", counted twice) or a
  conjugate pair:
      F_{(r, 0), c crosses} = 2 F_{(r-2, 0), c+1} + F_{(r-2, 1), c}.

One walk applies that rule to a key with no table entry:
:meth:`FInvariantEngine.derive` walks the count tuples and records each node
it reaches as an :class:`FDerivation` of its kind and counts, which builds
its :class:`FKey` only when the record's ``key`` is first read.
:meth:`FInvariantEngine.value` is the value of that chain.

Cross-marked keys are internal ledger entries only; their curated values
come from rigid configurations (an imposed double point or tangency).
A key with no table entry to which neither rule applies raises
UnresolvableFKey, never a silent zero; so does a key whose derivation needs
a chain of more than MAX_DERIVATION_DEPTH reductions.
"""

from __future__ import annotations

import random
from functools import cache

from .contact import ContactVector, LagrangianKind, _cached, _f_point_count, _moved, _non_negative, _Record, f_point_count
from .errors import UnresolvableFKey, WelschingerError
from .tables import F_TABLE, _packaged_payload, _read_json, _table_entries

__all__ = [
    "FKey",
    "FDerivation",
    "FInvariantEngine",
    "builtin_f_engine",
    "basis_f_engine",
]

# One stack frame per nested reduction: far beyond what chi asks for (18 over
# plane d <= 12, 2-quadric d <= 9, 3-quadric d <= 20), inside Python's limit.
MAX_DERIVATION_DEPTH = 500


class FKey(_Record):
    def __init__(self, kind: LagrangianKind, alpha: ContactVector, beta: ContactVector, r_l: int = 0, crosses: int = 0):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "r_l", r_l)
        object.__setattr__(self, "crosses", crosses)

    @_cached
    def r(self) -> int:
        """:func:`f_point_count` of the key, crosses included, or its error
        outside the domain; computed once (the fields alone decide equality)."""
        return f_point_count(self.kind, self.alpha, self.beta, self.r_l, self.crosses)

    def __str__(self) -> str:
        marks = "+" + "x" * self.crosses if self.crosses else ""
        return f"F[{self.kind.value}]_({self.r}{marks},{self.r_l})({self.alpha}, {self.beta})"


def _reduction(alpha: tuple, beta: tuple, r_l: int, crosses: int, r: int):
    """One reduction step on count tuples: the rule's name and its
    (coefficient, (alpha, beta, r_l, crosses, r)) terms.  pair-to-real
    applies when a conjugate pair and a free orbit are left, else
    real-pair-to-cross when no pair and at least two real points are;
    None when neither does."""
    if r_l >= 1 and beta:
        return "pair-to-real", [
            (k, (_moved(alpha, k, 1), _moved(beta, k, -1), r_l - 1, crosses, r)) for k, count in enumerate(beta, 1) if count
        ]
    if r_l == 0 and r >= 2:
        return "real-pair-to-cross", [(2, (alpha, beta, 0, crosses + 1, r - 2)), (1, (alpha, beta, 1, crosses, r - 2))]
    return None


class FDerivation(_Record):
    """One node of a derivation chain (audit trail for the derive command):
    the node's kind and its (alpha, beta, r_l, crosses, r) count tuples, its
    value, the rule that gave it ("table" for a table entry) and its
    (coefficient, child) terms.  Its FKey is built when :attr:`key` is first
    read, so a walk builds no key."""

    def __init__(self, kind: LagrangianKind, node: tuple, value: int, rule: str, terms: tuple[tuple[int, FDerivation], ...] = ()):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "node", node)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "rule", rule)
        object.__setattr__(self, "terms", terms)

    @_cached
    def key(self) -> FKey:
        return _key(self.kind, self.node)

    def lines(self, indent: int = 0) -> list[str]:
        pad = "  " * indent
        out = [f"{pad}{self.key} = {self.value}   [{self.rule}]"]
        for coeff, child in self.terms:
            out.append(f"{pad}  {coeff} x")
            out.extend(child.lines(indent + 2))
        return out

    def __str__(self) -> str:
        return "\n".join(self.lines())


class FInvariantEngine:
    """Resolve F-keys against a table, falling back to the reduction rules.

    ``entries`` maps the tuple :meth:`_table_key` of each table key, which
    hashes faster than the record, to its value; the engine keeps its own
    copy.  :meth:`plain_value` looks up that tuple from count tuples
    directly.  On a miss, :meth:`derive` walks :func:`_reduction` on count
    tuples and records each node it reaches; :meth:`value` reads the value
    of that chain.
    """

    def __init__(self, entries: dict[tuple, int]):
        self._entries = dict(entries)

    @staticmethod
    def _table_key(key: FKey) -> tuple:
        """(kind value, alpha counts, beta counts, r_l, crosses) of ``key``."""
        # _value_ is the plain attribute each member holds; .value is a descriptor call
        return (key.kind._value_, key.alpha.counts, key.beta.counts, key.r_l, key.crosses)

    @classmethod
    def from_json_payload(cls, payload: dict, where: str = "F table") -> "FInvariantEngine":
        """An engine over an override table.  Its rows are checked as the
        packaged table's are, and each row that the table's own basis rows
        derive must hold the derived value, else WelschingerError names the
        table and the key; a row they do not derive is curated, and stands."""
        entries, basis = _checked_rows(payload, where)
        derive = cls(basis).value
        for table_key, value in entries.items():
            if table_key in basis:
                continue
            key = _row_key(table_key)
            try:
                derived = derive(key)
            except UnresolvableFKey:
                continue
            if derived != value:
                raise WelschingerError(f"{where}: {key} is {value}, but the table's basis rows derive {derived}")
        return cls(entries)

    @classmethod
    def from_path(cls, path) -> "FInvariantEngine":
        return cls.from_json_payload(_read_json(path), where=repr(str(path)))

    def lookup(self, key: FKey):
        return self._entries.get(self._table_key(key))

    def value(self, key: FKey, order_seed: int | None = None) -> int:
        """F(key): the value of :meth:`derive`'s chain for ``key``."""
        return self.derive(key, order_seed).value

    def plain_value(self, kind: LagrangianKind, alpha: tuple[int, ...], beta: tuple[int, ...]) -> int:
        """:meth:`value` of the key with no pairs or crosses whose profiles
        have the counts ``alpha`` and ``beta``; the FKey is built only when
        the table misses."""
        known = self._entries.get((kind._value_, alpha, beta, 0, 0))
        return self.value(FKey(kind, ContactVector(alpha), ContactVector(beta))) if known is None else known

    def derive(self, key: FKey, order_seed: int | None = None) -> FDerivation:
        """The derivation chain of F(key): one walk of :func:`_reduction` on
        count tuples that records each node it reaches once, so a node two
        branches share is one record; a table hit at the root returns before
        the walk is set up.  A key outside the domain raises from
        :attr:`FKey.r` first; no child is outside it, as pair-to-real keeps r
        and real-pair-to-cross needs r >= 2."""
        r = key.r
        kind, entries, memo = key.kind, self._entries, {}
        name = kind._value_
        root = (key.alpha.counts, key.beta.counts, key.r_l, key.crosses, r)
        known = entries.get((name, *root[:4]))
        if known is not None:
            return FDerivation(kind, root, known, "table")
        rng = random.Random(order_seed) if order_seed is not None else None

        def walk(node, depth_left):
            alpha, beta, r_l, crosses, r = node
            tk = (name, alpha, beta, r_l, crosses)
            record = memo.get(tk)
            if record is not None:
                return record
            known = entries.get(tk)
            if known is not None:
                record = memo[tk] = FDerivation(kind, node, known, "table")
                return record
            step = _reduction(alpha, beta, r_l, crosses, r)
            if step is None:
                raise UnresolvableFKey(f"{_key(kind, node)} is outside the derivable closure")
            if not depth_left:
                raise RecursionError
            rule, combo = step
            if rng is not None:
                rng.shuffle(combo)
            total, terms = 0, []
            for coeff, child in combo:  # a loop, not a generator: one frame per reduction
                child = walk(child, depth_left - 1)
                total += coeff * child.value
                terms.append((coeff, child))
            record = memo[tk] = FDerivation(kind, node, total, rule, tuple(terms))
            return record

        try:
            return walk(root, MAX_DERIVATION_DEPTH)
        except RecursionError:
            raise UnresolvableFKey(f"{key} needs a chain of more than {MAX_DERIVATION_DEPTH} reductions") from None
        finally:
            del walk  # the closure holds itself: left bound, each derivation would wait for the garbage collector

    def plain_keys(self) -> list[FKey]:
        """Keys without conjugate pairs or crosses (the published values),
        built on each call."""
        return [_row_key(key) for key in self._entries if key[3:] == (0, 0)]


def _key(kind: LagrangianKind, node: tuple) -> FKey:
    """The FKey of a walk's node, its (alpha, beta, r_l, crosses, r) count
    tuples, holding the r its rule gave as the value of :attr:`FKey.r`."""
    alpha, beta, r_l, crosses, r = node
    key = FKey(kind, ContactVector._canonical(alpha), ContactVector._canonical(beta), r_l, crosses)
    object.__setattr__(key, "r", r)  # as the cached read stores it
    return key


def _row_key(table_key: tuple) -> FKey:
    """The FKey of a table key, the tuple :meth:`FInvariantEngine._table_key`."""
    name, alpha, beta, r_l, crosses = table_key
    return FKey(LagrangianKind(name), ContactVector._canonical(alpha), ContactVector._canonical(beta), r_l, crosses)


def _checked_rows(payload: dict, where: str) -> tuple[dict[tuple, int], dict[tuple, int]]:
    """The checked entries of an F-table payload, and those of its basis
    rows, keyed by table key tuples: the checks of ContactVector and
    :attr:`FKey.r`, made on count tuples, so that no record is built."""
    fields = [("kind", str), ("alpha", list), ("beta", list)]
    fields += [("r_l", int, 0), ("crosses", int, 0), ("basis", bool, False)]
    basis_keys = []

    def key_of(kind, alpha, beta, r_l, crosses, basis):
        kind = LagrangianKind(kind)
        alpha, beta = _non_negative(tuple(alpha)), _non_negative(tuple(beta))
        _f_point_count(kind, alpha, beta, r_l, crosses)  # a key outside the domain raises here
        key = (kind._value_, alpha, beta, r_l, crosses)
        if basis:
            basis_keys.append(key)
        return key

    entries = _table_entries(payload, fields, key_of, where)
    return entries, {key: entries[key] for key in basis_keys}


# The 17 derived plain rows stay beside the 30 basis rows: basis_f_engine()
# gives chi the same outcome on the 163 golden and frontier bench operations,
# but 14% and 6% slower per in-process pass (CPython 3.11, 2-core Xeon).
@cache
def _packaged_table() -> tuple[dict[tuple, int], dict[tuple, int]]:
    """(entries, basis entries) of the packaged F table, checked once per
    process for both the built-in engine and every basis engine."""
    return _checked_rows(_packaged_payload(F_TABLE), "F table")


@cache
def builtin_f_engine() -> FInvariantEngine:
    entries, _ = _packaged_table()
    return FInvariantEngine(entries)


def basis_f_engine() -> FInvariantEngine:
    """A fresh engine seeded with the curated basis only (cross-marked,
    vanishing and rigid geometric entries); everything else must be derived."""
    _, basis = _packaged_table()
    return FInvariantEngine(basis)
