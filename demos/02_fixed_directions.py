"""Fixed directions of the lifted quadratic part, and what they certify.

Once the tower has made the germ tangent to the identity (all block
eigenvalues 1), the quadratic part of the fully lifted germ decides the
local dynamics.  Directions fixed by that quadratic map are the
candidate tangents of parabolic curves; a direction is *allowable* when
it is transverse to the exceptional divisor, and the eigenvalues of an
associated attraction matrix govern the orbits that hug the curve.

Three exact solvers are compared here: a closed form for fully lifted
germs, a planar quadratic-formula solver, and the factored solver that
finds every fixed direction, and every positive-dimensional set of
them, by branching on the factors of the lifted quadratic part.  The
planar nongeneric family at the end shows the refined invariants
deciding between one curve, two curves, or an honestly unresolved
verdict.

Run:  python3 demos/02_fixed_directions.py
"""

from fractions import Fraction

from blowdyn import (
    GaussianRational,
    allowable_filter,
    build_structure,
    characteristic_directions,
    germ_from_terms,
    hakim_matrix,
    lift,
    lifted_quadratic_part,
    parabolic_classification,
)

G = GaussianRational


def banner(text):
    print()
    print("== " + text + " " + "=" * max(0, 66 - len(text)))


def fmt_dir(d):
    v = " + t ".join("[%s]" % " : ".join(str(x) for x in w)
                     for w in (d.v,) + d.span)
    return "%s  multiplier %s%s" % (
        v, d.lam, "  (degenerate)" if d.degenerate else "")


def main():
    # The classical planar germ (z1 + z2, z2 + z1^2): one Jordan block of
    # size 2 with eigenvalue 1.
    S = build_structure((2,), (G(1),))
    F = germ_from_terms(S, {(2, (2, 0)): G(1)}, cap=2)
    L = lift(F, S.ell, 2)
    Q = lifted_quadratic_part(L)

    banner("fixed directions of the fully lifted planar germ")
    dirs = characteristic_directions(Q, mode="structured", structure=S)
    for d in dirs:
        print("  structured closed form :", fmt_dir(d))
    allow = allowable_filter(dirs, S)
    print("  allowable (transverse to the divisor):",
          [fmt_dir(d) for d in allow])

    exact = characteristic_directions(Q, mode="exact2d")
    print("  planar quadratic solver finds %d directions:" % len(exact))
    for d in exact:
        print("      ", fmt_dir(d))
    print("  ([1 : 2/3] is the same projective ray as [3 : 2]; the other")
    print("   two rays meet the divisor, so only one direction survives")
    print("   the allowability filter)")

    # Every component of a lifted quadratic part is one coordinate times
    # a linear form, Q_j(v) = v_k l_j(v).  Writing u = v / lam, the
    # nondegenerate directions solve Q(u) = u, and each equation splits
    # into u_k = 0 or l_j(u) = 1: a finite set of exact linear solves.
    factored = characteristic_directions(Q, mode="factored")
    print("  factored solver finds %d directions:" % len(factored))
    for d in factored:
        print("      ", fmt_dir(d))
    print("  the closed form is among them, equal as exact vectors:",
          any(d.v == dirs[0].v and d.lam == dirs[0].lam for d in factored))

    banner("the attraction matrix at the allowable direction")
    H = hakim_matrix(Q, dirs[0].v)
    print("  chart coordinate:", H.chart)
    print("  matrix:", [[str(x) for x in row] for row in H.matrix])
    print("  spectrum:", [str(s) for s in H.spectrum])
    print("  every eigenvalue has nonpositive real part, so no transverse")
    print("  mode is attracted away from the curve direction.")

    banner("a tied unipotent (2, 2) germ: whole lines of fixed directions")
    S22 = build_structure((2, 2), (G(1), G(1)))
    F22 = germ_from_terms(S22, {(2, (2, 0, 0, 0)): G(1),
                                (4, (2, 0, 0, 0)): G(1),
                                (1, (1, 1, 0, 0)): G(1)}, cap=2)
    Q22 = lifted_quadratic_part(lift(F22, S22.ell, 2))
    for d in characteristic_directions(Q22, mode="factored"):
        print("      ", fmt_dir(d))
    print("  '[v] + t [w]' is a positive-dimensional set: every vector")
    print("  v + t w is fixed with the same multiplier")

    banner("planar nongeneric family: the refined invariants decide")

    def nongeneric(a111, a212, a2111):
        SS = build_structure((2,), (G(1),))
        return germ_from_terms(SS, {
            (1, (2, 0)): G(a111),
            (2, (1, 1)): G(2) * G(a212),
            (2, (3, 0)): G(a2111),
        }, cap=3)

    cases = [
        ("generic pair", nongeneric(1, Fraction(1, 3), 1)),
        ("coincident invariants", nongeneric(1, Fraction(1, 2), 1)),
        ("second invariant zero", nongeneric(1, 3, -2)),
        ("both invariants zero", nongeneric(1, -1, -2)),
    ]
    for label, germ in cases:
        rep = parabolic_classification(germ)
        print("  %-24s kind=%-18s curves=%s" % (label, rep.kind, rep.curves))
        if rep.invariants is not None:
            print("      invariants: first=%s second=%s ratio=%s"
                  % (rep.invariants.epsilon, rep.invariants.eta,
                     rep.invariants.xi))
        for d in rep.directions:
            att = ("" if not d.hakim_spectrum
                   else "  attraction %s" % (str(d.hakim_spectrum[0]),))
            print("      direction " + fmt_dir(d) + att)
        if rep.kind == "unresolved":
            print("      reason:", rep.reason)

    banner("a generic germ is classified in one step")
    rep = parabolic_classification(F)
    print("  kind=%s curves=%s at stage %s" % (rep.kind, rep.curves,
                                               rep.stage))
    for row in rep.asymptotics:
        print("      coordinate %d decays like %s / k^%d"
              % (row.j, row.constant, row.exponent))


if __name__ == "__main__":
    main()
