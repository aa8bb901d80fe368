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

Two walks apply that rule to a key with no table entry.
:meth:`FInvariantEngine.value` walks the count tuples for the number alone
and builds no record; :meth:`FInvariantEngine.derive` builds the
:class:`FDerivation` audit trail through :func:`reduce_key`, which wraps
the rule in keys.  Both visit the children in the same order, so they
reach the same value and name the same missing key.

Cross-marked keys are internal ledger entries only; their curated values
come from rigid configurations (an imposed double point or tangency).
A key with no table entry to which neither rule applies raises
UnresolvableFKey, never a silent zero; so does a key whose derivation needs
a chain of more than MAX_DERIVATION_DEPTH reductions.
"""

from __future__ import annotations

import random
from functools import cache

from .contact import ContactVector, LagrangianKind, _cached, _moved, _Record, f_point_count
from .errors import UnresolvableFKey
from .tables import F_TABLE, _packaged_payload, _read_json, _table_entries

__all__ = [
    "FKey",
    "FDerivation",
    "FInvariantEngine",
    "builtin_f_engine",
    "basis_f_engine",
    "reduce_key",
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

    @classmethod
    def _reduced(cls, kind, alpha, beta, r_l, crosses, r) -> "FKey":
        """A child key of :func:`reduce_key`, with the ``r`` its rule fixes."""
        key = object.__new__(cls)
        fields = key.__dict__  # item writes: faster than __init__'s object.__setattr__ calls
        fields["kind"], fields["alpha"], fields["beta"] = kind, alpha, beta
        fields["r_l"], fields["crosses"], fields["r"] = r_l, crosses, r
        return key

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


def reduce_key(key: FKey) -> tuple[str, list[tuple[int, FKey]]]:
    """:func:`_reduction` of ``key`` with each child an FKey, which shares
    its parent's vector where the counts are the same; UnresolvableFKey when
    neither rule applies."""
    alpha, beta = key.alpha, key.beta
    a0, b0 = alpha.counts, beta.counts
    step = _reduction(a0, b0, key.r_l, key.crosses, key.r)
    if step is None:
        raise _outside(key)
    rule, terms = step
    kind, vector = key.kind, ContactVector._canonical
    return rule, [
        (coeff, FKey._reduced(kind, alpha if a is a0 else vector(a), beta if b is b0 else vector(b), r_l, crosses, r))
        for coeff, (a, b, r_l, crosses, r) in terms
    ]


class FDerivation(_Record):
    """One node of a derivation chain (audit trail for the derive command)."""

    def __init__(self, key: FKey, value: int, rule: str, terms: tuple[tuple[int, FDerivation], ...] = ()):
        object.__setattr__(self, "key", key)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "rule", rule)
        object.__setattr__(self, "terms", terms)

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

    ``entries`` maps each table key to its value; lookups go through the
    tuple :meth:`_table_key` of a key, which hashes faster than the record.
    :meth:`plain_value` looks up that tuple from count tuples directly.  On a
    miss, :meth:`value` walks :func:`_reduction` on count tuples for the
    number alone, and :meth:`derive` records each key it visits.
    """

    def __init__(self, entries: dict[FKey, int]):
        self._keys = tuple(entries)
        self._entries = {self._table_key(key): value for key, value in entries.items()}

    @staticmethod
    def _table_key(key: FKey) -> tuple:
        # _value_ is the plain attribute each member holds; .value is a descriptor call
        return (key.kind._value_, key.alpha.counts, key.beta.counts, key.r_l, key.crosses)

    @classmethod
    def from_json_payload(cls, payload: dict, where: str = "F table") -> "FInvariantEngine":
        entries, _ = _checked_rows(payload, where)
        return cls(entries)

    @classmethod
    def from_path(cls, path) -> "FInvariantEngine":
        return cls.from_json_payload(_read_json(path), where=repr(str(path)))

    def lookup(self, key: FKey):
        return self._entries.get(self._table_key(key))

    def value(self, key: FKey, order_seed: int | None = None) -> int:
        """F(key): one walk that reads a table hit at its root, and resolves
        anything else on count tuples in the order :meth:`derive` takes, to
        the same value or the same error.  A key outside the domain raises
        from :attr:`FKey.r` first, as no table key does: each was read on load."""
        r = key.r
        kind, entries, memo = key.kind, self._entries, {}
        name = kind._value_
        rng = random.Random(order_seed) if order_seed is not None else None

        def walk(node, depth_left):
            alpha, beta, r_l, crosses, r = node
            tk = (name, alpha, beta, r_l, crosses)
            known = entries.get(tk)
            if known is None:
                known = memo.get(tk)
            if known is not None:
                return known
            step = _reduction(alpha, beta, r_l, crosses, r)
            if step is None:  # the one key this walk builds, to name it
                raise _outside(FKey._reduced(kind, ContactVector._canonical(alpha), ContactVector._canonical(beta), r_l, crosses, r))
            if not depth_left:
                raise RecursionError
            combo = step[1]
            if rng is not None:
                rng.shuffle(combo)
            total = 0
            for coeff, child in combo:  # one frame per reduction, as in _resolve
                total += coeff * walk(child, depth_left - 1)
            memo[tk] = total
            return total

        try:
            return walk((key.alpha.counts, key.beta.counts, key.r_l, key.crosses, r), MAX_DERIVATION_DEPTH)
        except RecursionError:
            raise _too_deep(key) from None

    def plain_value(self, kind: LagrangianKind, alpha: tuple[int, ...], beta: tuple[int, ...]) -> int:
        """:meth:`value` of the key with no pairs or crosses whose profiles
        have the counts ``alpha`` and ``beta``; the FKey is built only when
        the table misses."""
        known = self._entries.get((kind._value_, alpha, beta, 0, 0))
        return self.value(FKey(kind, ContactVector(alpha), ContactVector(beta))) if known is None else known

    def derive(self, key: FKey, order_seed: int | None = None) -> FDerivation:
        """The derivation chain of F(key).  A key outside the domain raises
        from :attr:`FKey.r`; no child is outside it, as pair-to-real keeps r
        and real-pair-to-cross needs r >= 2."""
        key.r
        rng = random.Random(order_seed) if order_seed is not None else None
        try:
            return self._resolve(key, {}, rng, MAX_DERIVATION_DEPTH)
        except RecursionError:
            raise _too_deep(key) from None

    def _resolve(self, key: FKey, memo: dict, rng, depth_left: int) -> FDerivation:
        tk = self._table_key(key)
        if tk in memo:
            return memo[tk]
        known = self._entries.get(tk)
        if known is not None:
            node = FDerivation(key, known, "table")
            memo[tk] = node
            return node
        rule, combo = reduce_key(key)
        if not depth_left:
            raise RecursionError
        if rng is not None:
            rng.shuffle(combo)
        terms = []
        for coeff, child in combo:  # a loop, not a generator: one frame per reduction
            terms.append((coeff, self._resolve(child, memo, rng, depth_left - 1)))
        node = FDerivation(key, sum(c * t.value for c, t in terms), rule, tuple(terms))
        memo[tk] = node
        return node

    def plain_keys(self) -> list[FKey]:
        """Keys without conjugate pairs or crosses (the published values)."""
        return [key for key in self._keys if key.r_l == 0 and key.crosses == 0]


def _outside(key: FKey) -> UnresolvableFKey:
    return UnresolvableFKey(f"{key} is outside the derivable closure")


def _too_deep(key: FKey) -> UnresolvableFKey:
    return UnresolvableFKey(f"{key} needs a chain of more than {MAX_DERIVATION_DEPTH} reductions")


def _checked_rows(payload: dict, where: str) -> tuple[dict[FKey, int], dict[FKey, int]]:
    """The checked entries of an F-table payload, and those of its basis rows."""
    fields = [("kind", str), ("alpha", list), ("beta", list)]
    fields += [("r_l", int, 0), ("crosses", int, 0), ("basis", bool, False)]
    basis_keys = set()

    def key_of(kind, alpha, beta, r_l, crosses, basis):
        key = FKey(LagrangianKind(kind), ContactVector(tuple(alpha)), ContactVector(tuple(beta)), r_l, crosses)
        key.r  # a key outside the domain raises here
        if basis:
            basis_keys.add(key)
        return key

    entries = _table_entries(payload, fields, key_of, where)
    return entries, {key: entries[key] for key in basis_keys}


# The 17 derived plain rows stay beside the 30 basis rows: basis_f_engine()
# gives chi the same outcome on the 163 golden and frontier bench operations,
# but 14% and 6% slower per in-process pass (CPython 3.11, 2-core Xeon).
@cache
def _packaged_table() -> tuple[dict[FKey, int], dict[FKey, int]]:
    """(entries, basis entries) of the packaged F table, read and checked
    once per process."""
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
