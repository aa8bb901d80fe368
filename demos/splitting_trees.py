"""Gallery of decorated splitting trees.

Stretching the neck along the real Lagrangian breaks each counted curve into
a two-stage limit; the combinatorics of the limit is a decorated tree.  This
script enumerates the trees behind a few invariants and unpacks every factor
of their multiplicities.
"""

from welschinger import TreeFamily, enumerate_trees, m1_minus, m1_plus, m2_reconnection, multiplicity
from welschinger.trees import tree_to_json_dict


def describe(family: TreeFamily, d: int, r: int) -> None:
    classes = enumerate_trees(family, d, r)
    print(f"{family.value}, d={d}, r={r}: {len(classes)} tree class(es)")
    for i, cls in enumerate(classes, start=1):
        for twc in cls.variants:
            tree, shape = twc.tree, twc.tree.shape
            edges = ", ".join(f"{u}-{v} (x{k})" for u, v, k in shape.edges)
            decorations = ", ".join(
                f"v{v}: g={shape.genus[v]}, pairs={tree.f_size(v)}"
                + (f", {'+' if tree.is_plus(v) else '-'}" if tree.sign(v) else "")
                for v in shape.odd_vertices
            )
            print(f"  class {i}: edges [{edges}]")
            print(f"    {decorations}")
            factors = [f"2-power and edge product -> {multiplicity(tree)}"]
            factors.append(f"m1+ = {m1_plus(tree)}, m1- = {m1_minus(tree)}")
            if family is TreeFamily.PROJECTIVE:
                factors.append(f"reconnections m2 = {m2_reconnection(tree)}")
            print(f"    multiplicity {multiplicity(tree)} ({'; '.join(factors[1:])})")
            print(f"    pair assignments: {twc.assignment_count}")
    print()


def json_dump_sample() -> None:
    import json

    classes = enumerate_trees(TreeFamily.PROJECTIVE, 6, 1)
    payload = tree_to_json_dict(classes[0].variants[0])
    print("JSON form of one decorated tree:")
    print(json.dumps(payload, indent=2, sort_keys=True))


if __name__ == "__main__":
    describe(TreeFamily.PROJECTIVE, 7, 2)
    describe(TreeFamily.TWO_SPHERICAL, 4, 3)
    describe(TreeFamily.THREE_SPHERICAL, 10, 1)
    json_dump_sample()
