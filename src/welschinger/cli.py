"""Command-line interface.

Subcommands:

* ``chi``      -- one invariant, optionally with its contribution ledger
* ``poly``     -- all computable coefficients chi^d_r for r <= r_max
* ``trees``    -- JSON dump of the decorated trees for (geometry, d, r)
* ``verify``   -- run the full acceptance suite (exit 1 on any failure)
* ``derive``   -- print the derivation chain of a cotangent invariant
* ``frontier`` -- report which (d, r) pairs are computable per geometry

Exit codes: 0 success, 1 verification failure, 2 flag errors, 3 a required
invariant is outside the curated tables (the missing key is printed).

Table overrides: ``--invariant-table`` / ``--f-table`` point at JSON files in
the packaged format; the WELSCHINGER_TABLE_DIR environment variable names a
directory holding ``relative_invariants.json`` / ``f_invariants.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .assembly import (
    admissible_real_counts,
    chi,
    chi_polynomial,
)
from .contact import ContactVector, GeometryKind, LagrangianKind
from .cotangent import FInvariantEngine, FKey, builtin_f_engine
from .errors import (
    InadmissiblePair,
    InvalidDegreeRealPair,
    NegativeDimension,
    UnknownInvariant,
    UnresolvableFKey,
    WelschingerError,
)
from .relative import RelativeInvariantTable, builtin_relative_table
from .trees import FAMILY_OF, enumerate_trees, trees_to_json
from .verification import run_all

_GEOMETRY = {
    "cp2": GeometryKind.PROJECTIVE_PLANE,
    "quadric2": GeometryKind.ELLIPSOID_QUADRIC2,
    "quadric3": GeometryKind.ELLIPSOID_QUADRIC3,
}
_KIND = {k.value: k for k in LagrangianKind}


def _load_tables(args) -> tuple[RelativeInvariantTable, FInvariantEngine]:
    table_dir = os.environ.get("WELSCHINGER_TABLE_DIR")
    inv_path = getattr(args, "invariant_table", None)
    f_path = getattr(args, "f_table", None)
    if inv_path is None and table_dir:
        candidate = os.path.join(table_dir, "relative_invariants.json")
        if os.path.exists(candidate):
            inv_path = candidate
    if f_path is None and table_dir:
        candidate = os.path.join(table_dir, "f_invariants.json")
        if os.path.exists(candidate):
            f_path = candidate
    table = RelativeInvariantTable.from_path(inv_path) if inv_path else builtin_relative_table()
    engine = FInvariantEngine.from_path(f_path) if f_path else builtin_f_engine()
    return table, engine


def _emit_chi(result, fmt: str, with_ledger: bool) -> None:
    if fmt == "json":
        payload = result.to_json_dict()
        if not with_ledger:
            payload.pop("ledger")
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
        return
    if fmt == "csv":
        print("geometry,d,r,chi")
        print(f"{result.geometry.value},{result.d},{result.r},{result.value}")
        return
    print(result.value)
    if with_ledger:
        for row in result.ledger:
            factors = "*".join(str(x) for x in row.relative_factors) or "1"
            print(
                f"  {row.contribution:>12}  = {row.sign:+d} * {row.assignment_count} "
                f"* {row.multiplicity} * F({row.f_value}) * {factors}   {row.tree}"
            )


def _cmd_chi(args) -> int:
    table, engine = _load_tables(args)
    geometry = _GEOMETRY[args.geometry]
    result = chi(geometry, args.degree, args.real_points, table, engine)
    _emit_chi(result, args.format, args.ledger)
    return 0


def _cmd_poly(args) -> int:
    table, engine = _load_tables(args)
    geometry = _GEOMETRY[args.geometry]
    r_max = args.real_points_max
    if r_max is None:
        r_max = max(admissible_real_counts(geometry, args.degree), default=0)
    poly = chi_polynomial(geometry, args.degree, r_max, table, engine)
    if args.format == "json":
        print(json.dumps(poly.to_json_dict(), sort_keys=True, separators=(",", ":")))
    elif args.format == "csv":
        print("geometry,d,r,chi")
        for r, value in sorted(poly.coefficients.items()):
            print(f"{geometry.value},{args.degree},{r},{value}")
    else:
        for r, value in sorted(poly.coefficients.items()):
            print(f"r={r}: {value}")
        for r, reason in sorted(poly.unavailable.items()):
            print(f"r={r}: unavailable ({reason})")
    return 0


def _cmd_trees(args) -> int:
    geometry = _GEOMETRY[args.geometry]
    classes = enumerate_trees(FAMILY_OF[geometry], args.degree, args.real_points)
    print(trees_to_json(classes))
    return 0


def _cmd_verify(args) -> int:
    ok = run_all(verbose=args.verbose)
    return 0 if ok else 1


def _cmd_derive(args) -> int:
    _, engine = _load_tables(args)
    kind = _KIND[args.kind]
    key = FKey(kind, args.alpha, args.beta, args.pairs)
    print(engine.derive(key))
    return 0


def _cmd_frontier(args) -> int:
    table, engine = _load_tables(args)
    for name, geometry in _GEOMETRY.items():
        print(f"{name}:")
        for d in range(1, args.max_degree + 1):
            good, missing = [], []
            for r in admissible_real_counts(geometry, d):
                try:
                    chi(geometry, d, r, table, engine)
                    good.append(r)
                except (UnknownInvariant, UnresolvableFKey):
                    missing.append(r)
                except (InadmissiblePair, InvalidDegreeRealPair, NegativeDimension):
                    continue
            if good or missing:
                ok = ",".join(map(str, good)) or "-"
                gap = ",".join(map(str, missing)) or "-"
                print(f"  d={d}: computable r: {ok}; missing tables for r: {gap}")
    return 0


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="welschinger",
        description="Exact Welschinger invariants via decorated splitting trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_tables(p):
        p.add_argument("--invariant-table", help="JSON override for the relative-invariant table")
        p.add_argument("--f-table", help="JSON override for the cotangent-invariant table")

    def add_geometry(p):
        p.add_argument("--geometry", choices=sorted(_GEOMETRY), required=True)
        p.add_argument("--degree", type=int, required=True)

    p_chi = sub.add_parser("chi", help="compute one invariant")
    add_geometry(p_chi)
    p_chi.add_argument("--real-points", type=int, required=True)
    p_chi.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p_chi.add_argument("--ledger", action="store_true", help="print the contribution table")
    add_tables(p_chi)
    p_chi.set_defaults(func=_cmd_chi)

    p_poly = sub.add_parser("poly", help="compute all coefficients up to a bound")
    add_geometry(p_poly)
    p_poly.add_argument("--real-points-max", type=int, default=None)
    p_poly.add_argument("--format", choices=["text", "json", "csv"], default="text")
    add_tables(p_poly)
    p_poly.set_defaults(func=_cmd_poly)

    p_trees = sub.add_parser("trees", help="dump the decorated trees as JSON")
    add_geometry(p_trees)
    p_trees.add_argument("--real-points", type=int, required=True)
    p_trees.set_defaults(func=_cmd_trees)

    p_verify = sub.add_parser("verify", help="run the acceptance suite")
    p_verify.add_argument("--verbose", action="store_true")
    p_verify.set_defaults(func=_cmd_verify)

    p_derive = sub.add_parser("derive", help="print a cotangent-invariant derivation chain")
    p_derive.add_argument("--kind", choices=sorted(_KIND), required=True)
    profile = ContactVector.parse
    p_derive.add_argument("--alpha", type=profile, default="0", help='prescribed profile, e.g. "e2" or "2e1"')
    p_derive.add_argument("--beta", type=profile, default="0", help='free profile, e.g. "e1+e2"')
    p_derive.add_argument("--pairs", type=_non_negative_int, default=0, help="conjugate point pairs")
    add_tables(p_derive)
    p_derive.set_defaults(func=_cmd_derive)

    p_frontier = sub.add_parser("frontier", help="computable (d, r) range per geometry")
    p_frontier.add_argument("--max-degree", type=int, default=8)
    add_tables(p_frontier)
    p_frontier.set_defaults(func=_cmd_frontier)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UnknownInvariant, UnresolvableFKey) as exc:
        print(f"missing invariant: {exc}", file=sys.stderr)
        return 3
    except WelschingerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
