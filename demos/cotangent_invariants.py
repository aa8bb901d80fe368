"""Open invariants of cotangent bundles and their derivation chains.

F_{(r, r_L)}(alpha, beta) counts real rational curves in T*L asymptotic to
prescribed (alpha) and free (beta) pairs of closed-geodesic lifts.  A small
curated basis of rigid configurations plus two reduction rules determines
every published value; the engine records the full derivation of each one.
"""

from welschinger import ContactVector, FKey, LagrangianKind, basis_f_engine, builtin_f_engine

CV = ContactVector


def tables() -> None:
    print("cotangent invariants over the 2-sphere (r_L = 0):")
    for alpha, beta in [("e1", "0"), ("0", "e1"), ("e2", "0"), ("0", "e2"), ("2e1", "0"), ("e1", "e1"), ("0", "2e1")]:
        key = FKey(LagrangianKind.SPHERE2, CV.parse(alpha), CV.parse(beta))
        value = builtin_f_engine().value(key)
        print(f"  F({alpha}, {beta}) = {value}   (r = {key.r} real points)")
    print()
    print("over the real projective plane the same profiles nearly all give 1;")
    print("the interesting growth happens at total contact order three:")
    for alpha, beta in [("e3", "0"), ("0", "e3"), ("0", "e1+e2"), ("0", "3e1")]:
        value = builtin_f_engine().value(FKey(LagrangianKind.RP2, CV.parse(alpha), CV.parse(beta)))
        print(f"  F({alpha}, {beta}) = {value}")
    print()
    print("over the 3-sphere the only curated value is signed by a spinor state:")
    print(f"  F(e1, 0) = {builtin_f_engine().value(FKey(LagrangianKind.SPHERE3, CV.e(1), CV.zero()))}")
    print()


def derivation_chain() -> None:
    engine = basis_f_engine()
    key = FKey(LagrangianKind.RP2, CV.zero(), CV.parse("e1+e2"))
    print(f"derivation of {key} from the reduction basis:")
    print(engine.derive(key))
    print()
    print("Reading the chain: colliding two real points trades them for an")
    print("imposed double point (factor 2) or a conjugate pair, and a pair is")
    print("traded for prescribing a free asymptotic of order k (factor k).")


if __name__ == "__main__":
    tables()
    derivation_chain()
