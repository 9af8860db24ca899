"""Walk through the blow-up tower attached to a non-diagonalizable germ.

The linear data is an invertible matrix in Jordan form whose blocks are
ordered by non-increasing size.  The tower of weighted blow-ups is driven
entirely by that block profile: each stage has explicit monomial charts,
and pushing the germ through them is an exact operation on truncated
power series.  At the last stage the lifted germ has a diagonalizable
linear part -- the tower "diagonalizes" the germ at the cost of moving to
a new fixed point on the exceptional divisor.

Run:  python3 demos/01_blowup_tower.py
"""

from fractions import Fraction

from blowdyn import (
    GaussianRational,
    build_structure,
    expected_eigenvalue_multiset,
    germ_from_terms,
    lift,
    lifted_linear_part,
    projection_formulas,
    splitting,
    verify_semiconjugacy,
)
from blowdyn.blowup import compare_printed_tables
from blowdyn.lifting import is_diagonalizable, jordan_matrix

G = GaussianRational


def banner(text):
    print()
    print("== " + text + " " + "=" * max(0, 66 - len(text)))


def show_matrix(rows):
    for row in rows:
        print("    [" + "  ".join("%6s" % str(x) for x in row) + "]")


def main():
    # Two Jordan blocks, sizes 3 and 2, with eigenvalues 2 and 5.
    S = build_structure((3, 2), (G(2), G(5)))
    banner("the linear structure")
    print("block sizes        :", S.mu)
    print("block offsets      :", S.nu)
    print("block eigenvalues  :", [str(x) for x in S.lam])
    print("ambient dimension  :", S.n)
    print("tower height       :", S.ell, "(one blow-up per stage)")

    banner("index splittings that drive each stage")
    for k in range(1, S.ell + 1):
        sp = splitting(S, k)
        print("stage %d: primed %r  double-primed %r  per block %r"
              % (k, sp.primed, sp.double_primed, sp.per_block))

    banner("monomial charts of the stage-1 blow-up")
    pf = projection_formulas(S, 1)
    for j in range(1, S.n + 1):
        e = pf.forward[j - 1]
        mono = "*".join("w%d^%d" % (i + 1, p) for i, p in enumerate(e) if p)
        print("    z%d = %s" % (j, mono or "1"))
    print("inverse charts need nonzero coordinates:", pf.required_nonzero)
    print("exceptional divisor: w_h = 0 for h in", pf.divisor)
    mism = compare_printed_tables(S, 1)
    print("chart formulas agree with the tabulated closed forms:",
          "yes" if not mism else mism)

    banner("a germ with this linear part")
    terms = {
        (3, (2, 0, 0, 0, 0)): G(1),                 # z1^2 in component 3
        (5, (1, 1, 0, 0, 0)): G(Fraction(1, 2)),    # z1 z2 in component 5
        (2, (0, 0, 1, 1, 0)): G(-2),                # z3 z4 in component 2
    }
    F = germ_from_terms(S, terms, cap=3)
    print("input linear part (Jordan form, not diagonalizable):")
    J = jordan_matrix(S)
    show_matrix(J)
    print("diagonalizable?", is_diagonalizable(J))

    banner("lifting the germ stage by stage")
    for k in range(1, S.ell + 1):
        L = lift(F, k, 4)
        ok = verify_semiconjugacy(F, L)
        M, multis = lifted_linear_part(L)
        eigs = ", ".join("%s (x%d)" % (str(v), m)
                         for v, m in sorted(multis.items(), key=str))
        print("stage %d: semiconjugacy with the base germ exact: %s"
              % (k, ok))
        print("         linear-part eigenvalues: %s  (diagonalizable: %s)"
              % (eigs, is_diagonalizable(M)))

    banner("the last stage diagonalizes")
    L = lift(F, S.ell, 4)
    M, multis = lifted_linear_part(L)
    show_matrix(M)
    print("diagonalizable?", is_diagonalizable(M))
    want = expected_eigenvalue_multiset(S)
    print("matches the closed-form eigenvalue table:", multis == want)
    print("  (first eigenvalue, then 1 with multiplicity mu1 - 1, then the")
    print("   eigenvalue ratios of the later blocks with their sizes)")


if __name__ == "__main__":
    main()
