"""Open invariants of cotangent bundles: curated bases plus reduction rules.

F_{(r, r_L)}(alpha, beta) is the signed count of real rational curves in T*L
asymptotic to prescribed (alpha) and free (beta) pairs of Reeb orbits,
through r real points and r_L conjugate point pairs; the sign is the parity
of the isolated real double points (dim L = 2) or the spinor state
(dim L = 3).  The real-point count r is always the one forced by the
dimension equation, so keys never store it.

Two reduction rules resolve values from a small curated basis:

* pair-to-real (r_L >= 1):
      F_{(r, r_L)}(alpha, beta)
        = sum over orders k with beta_k > 0 of
          k * F_{(r, r_L - 1)}(alpha + e_k, beta - e_k)
  The coefficient is k alone, without a beta_k factor.

* real-pair-to-cross (r >= 2, r_L = 0): colliding two real points trades
  them for either an imposed double point (a "cross", counted twice) or a
  conjugate pair:
      F_{(r, 0), c crosses} = 2 F_{(r-2, 0), c+1} + F_{(r-2, 1), c}.

Cross-marked keys are internal ledger entries only; their curated values
come from rigid configurations (an imposed double point or tangency).
Unknown keys raise UnresolvableFKey, never a silent zero.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from importlib import resources

from .contact import ContactVector, LagrangianKind, f_point_count
from .errors import EmptyBeta, InsufficientRealPoints, UnresolvableFKey
from .tables import _read_json, _table_entries

__all__ = [
    "FKey",
    "FDerivation",
    "FInvariantEngine",
    "builtin_f_engine",
    "basis_f_engine",
    "f_invariant",
    "reduce_pair_to_real",
    "reduce_real_pair_to_cross",
]


@dataclass(frozen=True)
class FKey:
    kind: LagrangianKind
    alpha: ContactVector
    beta: ContactVector
    r_l: int = 0
    crosses: int = 0

    @property
    def r(self) -> int:
        """Real points left after each imposed double point consumes two."""
        base = f_point_count(self.kind, self.alpha, self.beta, self.r_l)
        return base - 2 * self.crosses

    def __str__(self) -> str:
        marks = "+" + "x" * self.crosses if self.crosses else ""
        return f"F[{self.kind.value}]_({self.r}{marks},{self.r_l})({self.alpha}, {self.beta})"


def reduce_pair_to_real(key: FKey) -> list[tuple[int, FKey]]:
    """Trade one conjugate point pair for the prescription of a free orbit.

    Valid for r_L >= 1; each free order k contributes coefficient k.
    """
    if key.r_l < 1:
        raise ValueError("pair-to-real needs at least one conjugate pair")
    if not key.beta:
        raise EmptyBeta(f"{key} has no free asymptotic to prescribe")
    out = []
    for k in key.beta.orders():
        child = FKey(
            key.kind,
            key.alpha + ContactVector.e(k),
            key.beta - ContactVector.e(k),
            key.r_l - 1,
            key.crosses,
        )
        out.append((k, child))
    return out


def reduce_real_pair_to_cross(key: FKey) -> list[tuple[int, FKey]]:
    """Collide two real points: an imposed double point (twice) or a pair."""
    if key.r_l != 0:
        raise ValueError("real-pair-to-cross applies to keys without conjugate pairs")
    if key.r < 2:
        raise InsufficientRealPoints(f"{key} has fewer than two real points")
    return [
        (2, FKey(key.kind, key.alpha, key.beta, 0, key.crosses + 1)),
        (1, FKey(key.kind, key.alpha, key.beta, 1, key.crosses)),
    ]


@dataclass(frozen=True)
class FDerivation:
    """One node of a derivation chain (audit trail for the derive command)."""

    key: FKey
    value: int
    rule: str
    terms: tuple[tuple[int, "FDerivation"], ...] = field(default_factory=tuple)

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
    """Resolve F-keys against a table, falling back to the reduction rules."""

    def __init__(self, entries: dict[tuple, int], version: int = 1):
        self.version = version
        self._entries = dict(entries)

    @staticmethod
    def _table_key(key: FKey) -> tuple:
        return (key.kind.value, key.alpha.counts, key.beta.counts, key.r_l, key.crosses)

    @classmethod
    def from_json_payload(cls, payload: dict, basis_only: bool = False, where: str = "F table") -> "FInvariantEngine":
        fields = [("kind", str), ("alpha", list), ("beta", list)]
        fields += [("r_l", int, 0), ("crosses", int, 0), ("basis", bool, False)]

        def key_of(kind, alpha, beta, r_l, crosses, basis):
            if basis_only and not basis:
                return None
            alpha, beta = ContactVector(tuple(alpha)), ContactVector(tuple(beta))
            return (kind, alpha.counts, beta.counts, r_l, crosses)

        return cls(_table_entries(payload, fields, key_of, where), version=payload.get("version", 1))

    @classmethod
    def from_path(cls, path, basis_only: bool = False) -> "FInvariantEngine":
        return cls.from_json_payload(_read_json(path), basis_only=basis_only, where=str(path))

    def lookup(self, key: FKey):
        return self._entries.get(self._table_key(key))

    def value(self, key: FKey, order_seed: int | None = None) -> int:
        return self.derive(key, order_seed=order_seed).value

    def derive(self, key: FKey, order_seed: int | None = None) -> FDerivation:
        rng = random.Random(order_seed) if order_seed is not None else None
        return self._resolve(key, {}, rng)

    def _resolve(self, key: FKey, memo: dict, rng) -> FDerivation:
        tk = self._table_key(key)
        if tk in memo:
            return memo[tk]
        known = self.lookup(key)
        if known is not None:
            node = FDerivation(key, known, "table")
            memo[tk] = node
            return node
        if key.r_l >= 1 and key.beta:
            rule, combo = "pair-to-real", reduce_pair_to_real(key)
        elif key.r_l == 0 and key.r >= 2:
            rule, combo = "real-pair-to-cross", reduce_real_pair_to_cross(key)
        else:
            raise UnresolvableFKey(f"{key} is outside the derivable closure")
        if rng is not None:
            combo = list(combo)
            rng.shuffle(combo)
        terms = tuple((coeff, self._resolve(child, memo, rng)) for coeff, child in combo)
        node = FDerivation(key, sum(c * t.value for c, t in terms), rule, terms)
        memo[tk] = node
        return node

    def plain_keys(self) -> list[FKey]:
        """Keys without conjugate pairs or crosses (the published values)."""
        out = []
        for kind, alpha, beta, r_l, crosses in self._entries:
            if r_l == 0 and crosses == 0:
                out.append(FKey(LagrangianKind(kind), ContactVector(alpha), ContactVector(beta)))
        return out


_PAYLOAD = None


def _payload() -> dict:
    global _PAYLOAD
    if _PAYLOAD is None:
        _PAYLOAD = json.loads(
            resources.files("welschinger.tables").joinpath("f_invariants.json").read_text()
        )
    return _PAYLOAD


_BUILTIN: FInvariantEngine | None = None


def builtin_f_engine() -> FInvariantEngine:
    global _BUILTIN
    if _BUILTIN is None:
        _BUILTIN = FInvariantEngine.from_json_payload(_payload())
    return _BUILTIN


def basis_f_engine() -> FInvariantEngine:
    """Engine seeded with the curated basis only (cross-marked, vanishing and
    rigid geometric entries); everything else must be derived."""
    return FInvariantEngine.from_json_payload(_payload(), basis_only=True)


def f_invariant(
    kind: LagrangianKind,
    alpha: ContactVector,
    beta: ContactVector,
    r_l: int = 0,
    engine: FInvariantEngine | None = None,
) -> int:
    """Public entry point; cross-marked keys stay internal to derivations."""
    engine = engine or builtin_f_engine()
    return engine.value(FKey(kind, alpha, beta, r_l, 0))
