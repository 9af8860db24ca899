"""Quadratic normal forms under a single unipotent Jordan block.

A polynomial change of variables that commutes with the Jordan
translation structure removes every removable quadratic monomial.  What
survives is rigid: no cross terms, squares only up to a dimension cutoff
in the first components, and at most one square in the last component.
The demo computes the normal form of a random germ, verifies the exact
conjugation identity, and shows that the first-order coefficient vector
is covariant -- conjugating the germ by a random triangular-Toeplitz map
rescales that vector by an exact rational factor.

Run:  python3 demos/04_normal_forms.py
"""

import random
from fractions import Fraction

from blowdyn import (
    GaussianRational,
    build_structure,
    epsilon_vector,
    germ_from_terms,
    invariants_2d,
    leading_epsilon_column,
    normal_form,
)
from blowdyn.normalform import diagonal_cutoff, toeplitz_upper
from blowdyn.series import PolyMapGerm, TruncatedSeries, germ_inverse

G = GaussianRational


def banner(text):
    print()
    print("== " + text + " " + "=" * max(0, 66 - len(text)))


def fmt_series(s):
    parts = []
    for e, c in sorted(s.coeffs.items(), key=lambda kv: (sum(kv[0]), kv[0])):
        mono = " ".join("w%d^%d" % (i + 1, p) if p > 1 else "w%d" % (i + 1)
                        for i, p in enumerate(e) if p)
        parts.append("(%s)%s" % (c, " " + mono if mono else ""))
    return " + ".join(parts) if parts else "0"


def toeplitz_germ(alpha, n, cap):
    T = toeplitz_upper(alpha)
    comps = []
    for i in range(n):
        coeffs = {}
        for j in range(n):
            if T[i][j]:
                e = [0] * n
                e[j] = 1
                coeffs[tuple(e)] = T[i][j]
        comps.append(TruncatedSeries(n, cap, coeffs))
    return PolyMapGerm(comps)


def main():
    n = 4
    rng = random.Random(42)
    S = build_structure((n,), (G(1),))
    terms = {}
    monos = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
    for j in range(1, n + 1):
        for (h, k) in monos:
            if rng.random() < 0.4:
                e = [0] * n
                e[h - 1] += 1
                e[k - 1] += 1
                terms[(j, tuple(e))] = G(Fraction(rng.randint(-5, 5),
                                                  rng.randint(1, 3)))
    F = germ_from_terms(S, terms, cap=2)

    banner("a random quadratic germ over one unipotent block (n = %d)" % n)
    for j, s in enumerate(F.map.components, start=1):
        print("  component %d: %s" % (j, fmt_series(s)))

    banner("its quadratic normal form")
    nf = normal_form(F)
    for j, s in enumerate(nf.normalized.components, start=1):
        print("  component %d: %s" % (j, fmt_series(s)))
    print("  dimension cutoff for surviving squares:", diagonal_cutoff(n))
    print("  pivot square in the last component: index", nf.j0)
    print("  conjugation identity  chi o (normal form) == F o chi  holds "
          "exactly:",
          nf.conjugator.compose(nf.normalized) == F.map.compose(nf.conjugator))

    banner("the first-order coefficient vector and its covariance")
    v1 = epsilon_vector(nf)
    print("  vector:", tuple(str(x) for x in v1))
    k, col = leading_epsilon_column(nf)
    print("  leading column %d:" % k, tuple(str(x) for x in col))

    alpha = [G(Fraction(3, 2)), G(-1), G(Fraction(1, 3)), G(2)]
    Tg = toeplitz_germ(alpha, n, 2)
    conj = germ_inverse(Tg, 2).compose(F.map.compose(Tg))
    v2 = epsilon_vector(normal_form(conj))
    print("  after conjugating F by a triangular-Toeplitz map with "
          "diagonal %s:" % alpha[0])
    print("  vector:", tuple(str(x) for x in v2))
    pairs = [(a, b) for a, b in zip(v1, v2) if a or b]
    r = pairs[0][1] / pairs[0][0]
    print("  exact scalar multiple:", all(b == r * a for a, b in pairs),
          " (ratio %s)" % r)

    banner("planar refined invariants for a nongeneric germ")
    S2 = build_structure((2,), (G(1),))
    P = germ_from_terms(S2, {
        (1, (2, 0)): G(1),
        (2, (1, 1)): G(1),            # symmetrized coefficient 1/2
        (2, (3, 0)): G(0),
    }, cap=3)
    inv = invariants_2d(P)
    print("  germ (z1 + z2 + z1^2, z2 + z1 z2):")
    print("  first invariant  =", inv.epsilon)
    print("  second invariant =", inv.eta)
    print("  their ratio      =", inv.xi)
    print("  (nonzero and distinct from the squared first invariant, so")
    print("   this germ carries two parabolic curves -- see demo 02)")


if __name__ == "__main__":
    main()
