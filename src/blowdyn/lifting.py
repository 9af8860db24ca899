"""Lifting germs through the blow-up sequence.

Given a germ whose differential is the Jordan arrangement encoded by a
JordanStructure, the unique lift through stage k is computed in the
distinguished chart by pure series substitution.  Every chart coordinate
is z_j, z_j/z_h or z_1^2/z_h (blowup._projection_formulas checks the
shape).  The numerator component is pushed through the forward monomial
map; the pushed denominator F_h is split exactly into a monomial w^c_h
times a unit, once per lift for each distinct h, and the numerator is
divided by w^c_h and multiplied by the unit's reciprocal.  A failed
factorization (DivisionObstruction) is precisely the degeneracy that would
make the lift undefined.

The closed-form quadratic tables for the fully lifted map are transcribed
in predicted_quadratic_table and compared — never assumed — against the
computed series; rows whose printed index pattern is ambiguous are called
out in the comparison report.
"""

import functools
from dataclasses import dataclass

from .blowup import projection_formulas
from .errors import (
    DivisionObstruction,
    NotJordan,
    PreconditionViolated,
)
from .exactalg import extend_reduced, imat, triangular_diagonal
from .partition import splitting
from .scalars import QI_ONE, QI_ZERO, GaussianRational
from .series import (
    PolyMapGerm,
    TruncatedSeries,
    _quadratic_matrices,
    _term_triples,
    _unit,
    monomial_divide,
    monomial_substitute,
    series_multiply,
    series_power,
    series_reciprocal,
)


@functools.lru_cache(maxsize=256)
def jordan_matrix(S):
    """The block upper-bidiagonal matrix encoded by S, as exact scalars:
    a tuple of rows, built once per structure."""
    n = S.n
    m = [[QI_ZERO] * n for _ in range(n)]
    for lam, base, size in zip(S.lam, S.nu, S.mu):
        for j in range(base, base + size):
            m[j][j] = lam
            if j < base + size - 1:
                m[j][j + 1] = QI_ONE
    return tuple(map(tuple, m))


def germ_from_terms(S, terms, cap=2):
    """Input germ over structure S: the Jordan linear part plus extra terms.

    terms maps (component j, exponent tuple) to an exact coefficient, with
    1 <= j <= n; all entries of degree >= 2.  The usual way to build test
    and demo germs.
    """
    n = S.n
    by_comp = [{} for _ in range(n)]
    for (j, exps), c in terms.items():
        if not 1 <= j <= n:
            raise PreconditionViolated(
                "term component %r outside 1..%d" % (j, n))
        if sum(exps) < 2:
            raise PreconditionViolated(
                "extra terms must have degree >= 2; the linear part "
                "comes from the structure"
            )
        by_comp[j - 1][tuple(exps)] = c
    return germ_from_triples(S, cap,
                             [_term_triples(c, n, cap) for c in by_comp])


def germ_from_triples(S, cap, comps):
    """The InputGerm over S at cap whose component j is row j of the
    Jordan matrix plus the terms comps[j - 1], a dict {exponent tuple:
    (a, b, d)} for the coefficient (a + b i) / d, d > 0 and the triple
    not necessarily reduced.  The exponents are taken as given: n
    nonnegative integers of total degree 2..cap each, which the callers
    (germ_from_terms, the map file parser) check.  Every component's
    integer form is built by series._form_of, whatever the caller."""
    n = S.n
    return InputGerm(S, PolyMapGerm([
        TruncatedSeries._of_triples(n, cap, {
            **{_unit(h, n): (c.a, c.b, c.d) for h, c in enumerate(row) if c},
            **terms})
        for row, terms in zip(jordan_matrix(S), comps)]))


class InputGerm:
    """A polynomial germ together with its declared Jordan structure.

    The linear part of the map must equal the Jordan matrix of the
    structure exactly; everything else (quadratic terms a^j_{hk}, higher
    terms) is free.  The map is treated as an exact polynomial.
    """

    __slots__ = ("structure", "map")

    def __init__(self, structure, polymap):
        if polymap.n != structure.n:
            raise PreconditionViolated("dimension mismatch")
        bad = polymap.linear_mismatch(jordan_matrix(structure))
        if bad is not None:
            i, j = bad
            raise NotJordan("linear part entry (%d,%d) is %s, expected %s"
                            % (i + 1, j + 1, polymap.linear_matrix()[i][j],
                               jordan_matrix(structure)[i][j]))
        self.structure = structure
        self.map = polymap

    def a(self, j, h, k):
        """Symmetrized quadratic coefficient a^j_{hk}, 1-based."""
        return self.map.quadratic_coefficient(j, h, k)

    def leading_quadratic_coefficient(self):
        """a^{mu_1}_{11}: the coefficient driving genericity."""
        mu1 = self.structure.mu[0]
        return self.a(mu1, 1, 1)

    def is_generic(self):
        return bool(self.leading_quadratic_coefficient())


@dataclass(frozen=True)
class LiftedMap:
    structure: object
    stage: int
    cap: int
    series: PolyMapGerm
    formulas: object  # the ProjectionFormulas used

    def component(self, j):
        return self.series.components[j - 1]


def lift(F, k, D):
    """The stage-k lift of F in the distinguished chart, truncated at D.

    Chart coordinate i is z_j^t / z_h or z_j (pf.shapes).  Its lift is
    F_j^t pushed through the forward monomials, divided by the pushed F_h
    = w^c_h * unit.  Each distinct h is pushed, split and its unit
    inverted once per lift, and shared by every row that divides by it.
    """
    S = F.structure
    if not 1 <= k <= S.ell:
        raise PreconditionViolated("stage %d out of range 1..%d" % (k, S.ell))
    if D < 2:
        raise PreconditionViolated("cap must be at least 2")
    pf = projection_formulas(S, k)
    comps_in = F.map.components
    # h -> (c_h, reciprocal of F_h's unit at cap D); a row z_j has h None
    dens = {None: ((), None)}
    comps = []
    for i, (j, t, h) in enumerate(pf.shapes, start=1):
        if h not in dens:
            # The denominator must be monomial * unit: that is exactly the
            # non-degeneracy required for the lift to exist in this chart.
            den = monomial_substitute(comps_in[h], pf.forward,
                                      sum(pf.forward[h]) + D)
            low = den.low_degree()
            if low is None:
                raise DivisionObstruction(
                    "denominator vanishes identically at this cap",
                    stage=k, component=i)
            try:  # one lowest term, and every term divisible by it
                c, = den.homogeneous_part(low).coeffs
                unit = monomial_divide(den, c)
            except (ValueError, DivisionObstruction):
                raise DivisionObstruction(
                    "denominator is not a monomial times a unit",
                    stage=k, component=i)
            dens[h] = c, series_reciprocal(unit.truncated(D))
        c, inv = dens[h]
        quot = monomial_substitute(comps_in[j], pf.forward, sum(c) + D)
        if t == 2:
            quot = series_power(quot, 2)
        if inv is not None:
            try:
                quot = monomial_divide(quot, c)
            except DivisionObstruction:
                raise DivisionObstruction(
                    "numerator lacks the denominator's monomial content",
                    stage=k, component=i)
            quot = series_multiply(quot, inv)
        if quot.constant_term():
            raise DivisionObstruction(
                "lifted component does not fix the distinguished point",
                stage=k, component=i)
        comps.append(quot)
    germ = PolyMapGerm(comps)
    return LiftedMap(structure=S, stage=k, cap=D, series=germ, formulas=pf)


def lifted_linear_part(L):
    """Linear part of the lifted germ plus its exact eigenvalue multiset.

    The linear part must be triangular under some ordering of its indices,
    as it is at every stage of every structure; the multiset is then its
    diagonal, {value: count} in diagonal order.  Any other matrix raises
    PreconditionViolated.
    """
    mat = L.series.linear_matrix()
    return mat, triangular_diagonal(mat)


def expected_eigenvalue_multiset(S):
    """The predicted final-stage eigenvalue multiset for structure S."""
    lam1 = S.lam[0]
    if S.has_equal_top_blocks():
        top = lam1 * lam1 / S.lam[1]
    else:
        top = lam1
    multis = {top: 1}
    if S.mu[0] > 1:
        multis[QI_ONE] = multis.get(QI_ONE, 0) + S.mu[0] - 1
    for l in range(1, S.rho):
        v = S.lam[l] / lam1
        multis[v] = multis.get(v, 0) + S.mu[l]
    return multis


def is_diagonalizable(mat):
    """Exact certificate: dim ker(M - lambda I), n minus the rank of the
    shifted rows' reduced form, equals the multiplicity of every
    eigenvalue lambda.  M must be exact and triangular under some ordering
    of its indices; any other matrix raises PreconditionViolated."""
    if not all(isinstance(x, GaussianRational) for row in mat for x in row):
        raise PreconditionViolated(
            "diagonalizability is decided for exact matrices only")
    n = len(mat)
    for lam, mult in triangular_diagonal(mat).items():
        reduced = []
        for i, row in enumerate(mat):
            shifted = list(row)
            shifted[i] = shifted[i] - lam
            reduced = extend_reduced(reduced, shifted, n)
        if n - len(reduced) != mult:
            return False
    return True


@dataclass(frozen=True)
class ChartQuadraticForm:
    """The n-tuple of quadratic forms of a lifted germ: component j has
    symmetric coefficient matrix Q_j, so the quadratic part evaluates as
    v^T Q_j v."""

    n: int
    matrices: tuple  # n symmetric n x n matrices of exact scalars

    @functools.cached_property
    def stacked(self):
        """The matrices stacked into one n^2 x n integer matrix over one
        denominator (exactalg.imat), built on first use; exact entries
        only."""
        return imat([row for m in self.matrices for row in m])

    def value(self, j, v):
        q = self.matrices[j - 1]
        total = None
        for h in range(self.n):
            vh = v[h]
            if not vh:
                continue
            row = q[h]
            for k in range(self.n):
                if row[k] and v[k]:
                    term = row[k] * vh * v[k]
                    total = term if total is None else total + term
        if total is None:
            total = 0 * v[0] if v else QI_ZERO
        return total

    def monomial_coefficient(self, j, h, k):
        c = self.matrices[j - 1][h - 1][k - 1]
        return c + c if h != k else c


def lifted_quadratic_part(L):
    if L.cap < 2:
        raise PreconditionViolated("lift cap too small for quadratic data")
    return ChartQuadraticForm(n=L.structure.n,
                              matrices=_quadratic_matrices(L.series))


def predicted_quadratic_table(F):
    """Closed-form final-stage quadratic monomial coefficients.

    Returns (table, ambiguous) where table maps component j (1-based) to a
    dict {exponent tuple: coefficient} describing the complete predicted
    quadratic part, and ambiguous lists the components whose printed row
    uses the chart-global index pattern that may be a typo; comparisons
    should report rather than enforce those rows.
    """
    S = F.structure
    n = S.n
    mu1 = S.mu[0]
    lam1 = S.lam[0]
    one = QI_ONE

    def mono(*pairs):
        e = [0] * n
        for idx in pairs:
            e[idx - 1] += 1
        return tuple(e)

    table = {j: {} for j in range(1, n + 1)}
    ambiguous = []
    sp = splitting(S, mu1)
    block_of = {}
    for l, blk in enumerate(sp.per_block, start=1):
        for j in blk:
            block_of[j] = l

    if not S.has_equal_top_blocks():
        a_top = F.a(mu1, 1, 1)
        table[1][mono(1, 1)] = -a_top
        if mu1 >= 2:
            table[1][mono(1, 2)] = GaussianRational(2)
        for j in range(2, mu1):
            table[j][mono(j, j)] = -one / lam1
            table[j][mono(j, j + 1)] = one / lam1
        if mu1 >= 2:
            table[mu1][mono(1, mu1)] = a_top / lam1
            table[mu1][mono(mu1, mu1)] = -one / lam1
        for l in range(2, S.rho + 1):
            laml = S.lam[l - 1]
            mul = S.mu[l - 1]
            nul = S.nu[l - 1]
            last = nul + mul
            for j in range(nul + 1, last):
                table[j][mono(j - nul + 1, j)] = -laml / (lam1 * lam1)
                table[j][mono(j - nul + 1, j + 1)] = one / lam1
            if mul < mu1 - 1:
                table[last][mono(mul + 1, last)] = -laml / (lam1 * lam1)
                ambiguous.append(last)
            else:  # mul == mu1 - 1
                table[last][mono(1, mu1)] = F.a(last, 1, 1) / lam1
                table[last][mono(mu1, last)] = -laml / (lam1 * lam1)
    else:
        lam2 = S.lam[1]
        pivot = S.nu[1] + S.mu[1]
        a_piv = F.a(pivot, 1, 1)
        table[1][mono(1, 1)] = -(lam1 * lam1 / (lam2 * lam2)) * a_piv
        table[1][mono(1, 2)] = (lam1 / lam2) * 2
        for j in range(2, mu1):
            table[j][mono(j, j)] = -one / lam1
            table[j][mono(j, j + 1)] = one / lam1
        table[mu1][mono(mu1, mu1)] = -one / lam1
        table[pivot][mono(1, pivot)] = a_piv / lam1
        for l in range(2, S.rho + 1):
            laml = S.lam[l - 1]
            mul = S.mu[l - 1]
            nul = S.nu[l - 1]
            last = nul + mul
            for j in sp.per_block[l - 1]:
                if j == last:
                    continue
                table[j][mono(j - nul + 1, j)] = -laml / (lam1 * lam1)
                table[j][mono(j - nul + 1, j + 1)] = one / lam1
            if l == 2:
                pass  # the pivot row was set above
            elif mul == mu1:
                table[last][mono(1, pivot)] = F.a(last, 1, 1) / lam1
            else:
                # The printed table claims no quadratic terms here, but the
                # computed lift consistently carries the same cross term as
                # the untied-top case; keep the literal (empty) prediction
                # and flag the row so comparisons report it.
                ambiguous.append(last)
    clean = {}
    for j, d in table.items():
        clean[j] = {e: c for e, c in d.items() if c}
    return clean, ambiguous


def compare_quadratic_with_prediction(L, F):
    """Compare the computed final-stage quadratic part against the printed
    closed forms.  Returns a dict with full per-monomial mismatch lists,
    keeping ambiguous-row disagreements separate from hard mismatches."""
    S = F.structure
    if L.stage != S.ell:
        raise PreconditionViolated("prediction applies to the final stage")
    table, ambiguous = predicted_quadratic_table(F)
    mismatches = []
    ambiguous_mismatches = []
    for j in range(1, S.n + 1):
        comp = L.component(j)
        got = {e: c for e, c in comp.coeffs.items() if sum(e) == 2}
        want = table[j]
        keys = set(got) | set(want)
        for e in sorted(keys):
            g = got.get(e, QI_ZERO)
            w = want.get(e, QI_ZERO)
            if g != w:
                item = (j, e, w, g)
                if j in ambiguous:
                    ambiguous_mismatches.append(item)
                else:
                    mismatches.append(item)
    return {
        "matches": not mismatches and not ambiguous_mismatches,
        "mismatches": mismatches,
        "ambiguous_rows": ambiguous,
        "ambiguous_mismatches": ambiguous_mismatches,
        "flagged_tied_tail_blocks": S.third_block_ties_top(),
    }


def semiconjugacy_residual(F, L):
    """Both sides of the defining identity at cap D: push the lift through
    the forward monomials and compare with the input composed with them.
    Returns the list of per-component differences (all zero series iff the
    lift is correct).

    Row j of the forward table is an exponent vector p, and its side of
    the identity is the product prod_i L_i^p_i of the lifted components.
    The rows form a tree: taken in order of total degree, a row whose p
    minus a unit vector e_i is an earlier row is that row's product times
    L_i, one multiplication.  A row with no such parent is multiplied out
    from powers; in every chart of dimension at most 9 there is only one,
    the row of lowest degree."""
    pf = L.formulas
    comps = L.series.components
    products = {}  # exponent vector -> its product of lifted components
    for p in sorted(set(pf.forward), key=sum):
        for i, x in enumerate(p):
            parent = p[:i] + (x - 1,) + p[i + 1:]
            if x and parent in products:
                products[p] = series_multiply(products[parent], comps[i])
                break
        else:
            factors = [series_power(comps[i], x) for i, x in enumerate(p) if x]
            prod = factors[0]
            for f in factors[1:]:
                prod = series_multiply(prod, f)
            products[p] = prod
    return [products[p] - monomial_substitute(f, pf.forward, L.cap)
            for p, f in zip(pf.forward, F.map.components)]


def verify_semiconjugacy(F, L):
    return all(r.is_zero() for r in semiconjugacy_residual(F, L))
