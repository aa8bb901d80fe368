"""Regenerate bench/reference.json: the operations of every workload and the
outcome each must give.

    python3 bench/make_reference.py

The outcomes are recorded from the code in ``src/`` by the same worker the
benchmark runs, and cross-checked against the golden values and the
built-in tables.  The benchmark never imports them from the package, so a
change that moves a value fails the benchmark until a change to the
benchmark alone updates this file.
"""

import json
import subprocess
import sys

from run import HERE, SRC, PassFailed, run_pass

sys.path.insert(0, str(SRC))

from welschinger import assembly, cotangent, relative  # noqa: E402
from welschinger.contact import ContactVector, GeometryKind, LagrangianKind  # noqa: E402
from welschinger.cotangent import FKey  # noqa: E402
from welschinger.trees import TreeFamily  # noqa: E402
from welschinger.verification import GOLDEN_VALUES  # noqa: E402

FAMILY = {
    GeometryKind.PROJECTIVE_PLANE: TreeFamily.PROJECTIVE,
    GeometryKind.ELLIPSOID_QUADRIC2: TreeFamily.TWO_SPHERICAL,
    GeometryKind.ELLIPSOID_QUADRIC3: TreeFamily.THREE_SPHERICAL,
}


def _ops():
    golden = [
        ("chi", [g.value, d, r]) for g, table in GOLDEN_VALUES.items() for d, r in sorted(table)
    ]
    frontier = [
        ("chi", [g.value, d, r])
        for g in GeometryKind
        for d in range(1, 9)
        for r in assembly.admissible_real_counts(g, d)
    ]
    deep = [("enumerate", [TreeFamily.PROJECTIVE.value, 9, 0]), ("enumerate", [TreeFamily.PROJECTIVE.value, 10, 1])]

    # F keys: every row of the shipped table plus every root key of a golden ledger
    shipped = json.loads((SRC / "welschinger" / "tables" / "f_invariants.json").read_text())
    f_keys = {
        (
            row["kind"],
            ContactVector(tuple(row["alpha"])).counts,
            ContactVector(tuple(row["beta"])).counts,
            row.get("r_l", 0),
            row.get("crosses", 0),
        )
        for row in shipped["entries"]
    }
    for g, table in GOLDEN_VALUES.items():
        for d, r in table:
            for cls in assembly.enumerate_trees(FAMILY[g], d, r):
                for twc in cls.variants:
                    alpha, beta = twc.tree.root_profiles()
                    f_keys.add((g.lagrangian.value, alpha.counts, beta.counts, 0, 0))
    tables = [("basis_engine", [])]
    tables += [("derive", [k, list(a), list(b), r_l, c]) for k, a, b, r_l, c in sorted(f_keys)]
    tables += [
        ("n_sigma", [k.surface.n, k.surface.a, k.surface.b, list(k.alpha.counts), list(k.beta.counts)])
        for k in relative.builtin_relative_table().known_keys()
    ]
    bidegrees = [(a, b) for a in range(4) for b in range(4)]
    tables += [("n_three", [a, b, 1, alpha, beta]) for a, b in bidegrees for alpha, beta in (([1], []), ([], [1]))]
    tables += [("quadric_count", [a, b]) for a, b in bidegrees]
    return {"golden": golden, "frontier": frontier, "deep": deep, "tables": tables}


def _record(ops, order_seed):
    spec = {
        "ops": [[i, name, args] for i, (name, args) in enumerate(ops)],
        "order_seed": order_seed,
        "op_limit_s": 600,
        "trace": False,
    }
    results = run_pass(spec, 1200)["results"]
    return [outcome for _, outcome, *_ in results]


def _check(workload, ops, outcomes):
    full = cotangent.builtin_f_engine()
    for (name, args), outcome in zip(ops, outcomes):
        if outcome[0] in ("error", "timeout"):
            raise SystemExit(f"{workload}: {name} {args} gave {outcome}")
        if workload == "golden":
            g, d, r = args
            want = GOLDEN_VALUES[GeometryKind(g)][(d, r)]
            if outcome != ["value", want]:
                raise SystemExit(f"golden chi {args} = {outcome}, golden value {want}")
        if name == "derive":
            kind, alpha, beta, r_l, crosses = args
            key = FKey(LagrangianKind(kind), ContactVector(tuple(alpha)), ContactVector(tuple(beta)), r_l, crosses)
            want = full.lookup(key)
            if want is not None and outcome != ["value", want]:
                raise SystemExit(f"derive {args} = {outcome}, shipped table {want}")


def main():
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=HERE, capture_output=True, text=True
    ).stdout.strip()
    workloads = {}
    for workload, ops in _ops().items():
        try:
            outcomes = _record(ops, 0)
            if workload == "tables":
                # derivations must not depend on the ordering seed
                for seed in (1, 2, 3):
                    if _record(ops, seed) != outcomes:
                        raise SystemExit(f"tables outcomes depend on the ordering seed {seed}")
        except PassFailed as exc:
            raise SystemExit(f"{workload}: {exc}") from exc
        _check(workload, ops, outcomes)
        workloads[workload] = [
            {"op": name, "args": args, "expect": outcome} for (name, args), outcome in zip(ops, outcomes)
        ]
        kinds = {}
        for outcome in outcomes:
            kinds[outcome[0]] = kinds.get(outcome[0], 0) + 1
        print(f"{workload}: {len(ops)} operations, {kinds}")
    # one operation per line, so a reference update reads as a small diff
    parts = [f'{{"recorded_at": {json.dumps(commit)}, "workloads": {{']
    for i, (workload, entries) in enumerate(workloads.items()):
        body = ",\n".join("  " + json.dumps(entry) for entry in entries)
        parts.append(f' {json.dumps(workload)}: [\n{body}\n ]' + ("," if i < len(workloads) - 1 else ""))
    parts.append("}}")
    (HERE / "reference.json").write_text("\n".join(parts) + "\n")


if __name__ == "__main__":
    main()
