"""Command-line interface.

Subcommands:

* ``chi``      -- one invariant, optionally with its contribution ledger
* ``poly``     -- chi^d_r for every admissible r (r <= --real-points-max if
  given), each value or the reason it is unavailable
* ``trees``    -- JSON dump of the decorated trees for (geometry, d, r)
* ``verify``   -- run the full acceptance suite (exit 1 on any failure)
* ``derive``   -- print the derivation chain of a cotangent invariant
* ``frontier`` -- per geometry and degree, which admissible r compute and
  which miss a table value

Each command parses, makes one library call per decision and prints: ``poly``
and ``frontier`` both run ``chi_polynomial``, and ``chi`` and ``trees`` both
check the domain with ``check_admissible``.

Exit codes: 0 success, 1 verification failure, 2 flag errors, 3 a required
invariant is outside the curated tables (the missing key is printed) or the
degree has more candidate trees than the enumeration bound.

Table override: the cotangent-invariant table F is the one table that can
be overridden, by ``--f-table``, a JSON file in the packaged table's format,
or by the WELSCHINGER_TABLE_DIR environment variable, which names a
directory holding ``f_invariants.json``.  The relative counts are computed
or a curated constant, and take no override: a ``relative_invariants.json``
left in that directory is an error, not silently ignored.
``json`` and ``csv`` are imported only by the branches that print them, so a
text-format call loads neither.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import trees
from .assembly import admissible_real_counts, check_admissible, chi, chi_polynomial
from .contact import ContactVector, GeometryKind, LagrangianKind
from .cotangent import FInvariantEngine, FKey, builtin_f_engine
from .errors import EnumerationTooLarge, InadmissiblePair, UnknownInvariant, UnresolvableFKey, WelschingerError
from .tables import F_TABLE
from .trees import FAMILY_OF, enumerate_trees, trees_to_json
from .verification import run_all

_GEOMETRY = {g.value: g for g in GeometryKind}
_KIND = {k.value: k for k in LagrangianKind}


def _load_engine(args) -> FInvariantEngine:
    """The F engine of the table ``--f-table`` names, else of the one in
    WELSCHINGER_TABLE_DIR, else the packaged one.  A set
    WELSCHINGER_TABLE_DIR that does not hold ``f_invariants.json``, or that
    holds ``relative_invariants.json``, which would otherwise be silently
    ignored, is an error."""
    f_path = args.f_table
    table_dir = os.environ.get("WELSCHINGER_TABLE_DIR")
    if table_dir:
        relative_path = os.path.join(table_dir, "relative_invariants.json")
        if os.path.exists(relative_path):
            raise WelschingerError(f"{relative_path}: the relative counts are built in and take no override")
        in_dir = os.path.join(table_dir, F_TABLE)
        if not os.path.exists(in_dir):
            raise WelschingerError(f"WELSCHINGER_TABLE_DIR={table_dir} is not a directory holding {F_TABLE}")
        f_path = in_dir if f_path is None else f_path
    return builtin_f_engine() if f_path is None else FInvariantEngine.from_path(f_path)


def _emit_chi(result, fmt: str, with_ledger: bool) -> None:
    if fmt == "json":
        import json

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
    engine = _load_engine(args)
    geometry = _GEOMETRY[args.geometry]
    result = chi(geometry, args.degree, args.real_points, f_engine=engine)
    _emit_chi(result, args.format, args.ledger)
    return 0


def _cmd_poly(args) -> int:
    engine = _load_engine(args)
    geometry = _GEOMETRY[args.geometry]
    if not admissible_real_counts(geometry, args.degree):  # chi_polynomial gives an empty polynomial here
        raise InadmissiblePair(f"{geometry.value} has no admissible real-point count in degree {args.degree}")
    poly = chi_polynomial(geometry, args.degree, args.real_points_max, f_engine=engine)
    if args.format == "json":
        import json

        print(json.dumps(poly.to_json_dict(), sort_keys=True, separators=(",", ":")))
    elif args.format == "csv":
        import csv

        # one row per admissible r; a miss has an empty chi and its reason, which can hold commas
        rows = csv.writer(sys.stdout, lineterminator="\n")
        rows.writerow(["geometry", "d", "r", "chi", "unavailable"])
        for r in sorted(poly.coefficients.keys() | poly.unavailable.keys()):
            rows.writerow([geometry.value, args.degree, r, poly.coefficients.get(r, ""), poly.unavailable.get(r, "")])
    else:
        for r, value in sorted(poly.coefficients.items()):
            print(f"r={r}: {value}")
        for r, reason in sorted(poly.unavailable.items()):
            print(f"r={r}: unavailable ({reason})")
    return 0


def _cmd_trees(args) -> int:
    geometry = _GEOMETRY[args.geometry]
    check_admissible(geometry, args.degree, args.real_points)
    classes = enumerate_trees(FAMILY_OF[geometry], args.degree, args.real_points)
    print(trees_to_json(classes))
    return 0


def _cmd_verify(args) -> int:
    ok = run_all(verbose=args.verbose)
    return 0 if ok else 1


def _cmd_derive(args) -> int:
    engine = _load_engine(args)
    kind = _KIND[args.kind]
    key = FKey(kind, args.alpha, args.beta, args.pairs)
    print(engine.derive(key))
    return 0


def _cmd_frontier(args) -> int:
    engine = _load_engine(args)
    for name, geometry in _GEOMETRY.items():
        print(f"{name}:")
        for d in range(1, args.max_degree + 1):
            poly = chi_polynomial(geometry, d, f_engine=engine)
            if poly.coefficients or poly.unavailable:
                ok = ",".join(map(str, sorted(poly.coefficients))) or "-"
                gap = ",".join(map(str, sorted(poly.unavailable))) or "-"
                print(f"  d={d}: computable r: {ok}; missing tables for r: {gap}")
            trees._candidates.cache_clear()  # no later degree reads these shapes
    return 0


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _profile(text: str) -> ContactVector:
    try:
        return ContactVector.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="welschinger",
        description="Exact Welschinger invariants via decorated splitting trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_tables(p):
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
    p_poly.add_argument("--real-points-max", type=_non_negative_int, default=None)
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
    p_derive.add_argument("--alpha", type=_profile, default="0", help='prescribed profile, e.g. "e2" or "2e1"')
    p_derive.add_argument("--beta", type=_profile, default="0", help='free profile, e.g. "e1+e2"')
    p_derive.add_argument("--pairs", type=_non_negative_int, default=0, help="conjugate point pairs")
    add_tables(p_derive)
    p_derive.set_defaults(func=_cmd_derive)

    p_frontier = sub.add_parser("frontier", help="computable (d, r) range per geometry")
    p_frontier.add_argument("--max-degree", type=_non_negative_int, default=8)
    add_tables(p_frontier)
    p_frontier.set_defaults(func=_cmd_frontier)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "chi" and args.ledger and args.format == "csv":
        parser.error("argument --ledger: not allowed with --format csv, whose one row has no ledger")
    try:
        return args.func(args)
    except (UnknownInvariant, UnresolvableFKey) as exc:
        print(f"missing invariant: {exc}", file=sys.stderr)
        return 3
    except EnumerationTooLarge as exc:
        print(f"beyond the computable range: {exc}", file=sys.stderr)
        return 3
    except WelschingerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
