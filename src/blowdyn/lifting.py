"""Lifting germs through the blow-up sequence.

Given a germ whose differential is the Jordan arrangement encoded by a
JordanStructure, the unique lift through stage k is computed in the
distinguished chart by pure series substitution: each input component is
pushed through the forward monomial map, the monomial content predicted by
the inverse exponent table is factored out exactly, and the remaining units
are divided.  A failed factorization (DivisionObstruction) is precisely the
degeneracy that would make the lift undefined.

The closed-form quadratic tables for the fully lifted map are transcribed
in predicted_quadratic_table and compared — never assumed — against the
computed series; rows whose printed index pattern is ambiguous are called
out in the comparison report.
"""

from dataclasses import dataclass

from .blowup import projection_formulas
from .errors import (
    DivisionObstruction,
    NotJordan,
    PreconditionViolated,
)
from .exactalg import (
    eigenvalues_from_diagonal_candidates,
    is_squarefree,
    minimal_polynomial,
)
from .partition import splitting
from .scalars import GaussianRational
from .series import (
    PolyMapGerm,
    TruncatedSeries,
    _quadratic_matrices,
    monomial_divide,
    series_multiply,
    series_power,
    series_reciprocal,
)


def jordan_matrix(S):
    """The block upper-bidiagonal matrix encoded by S, as exact scalars."""
    n = S.n
    m = [[GaussianRational(0) for _ in range(n)] for _ in range(n)]
    for l in range(S.rho):
        lam = S.lam[l]
        base = S.nu[l]
        size = S.mu[l]
        for j in range(base, base + size):
            m[j][j] = lam
            if j < base + size - 1:
                m[j][j + 1] = GaussianRational(1)
    return m


def germ_from_terms(S, terms, cap=2):
    """Input germ over structure S: the Jordan linear part plus extra terms.

    terms maps (component j, exponent tuple) to a coefficient; all entries
    of degree >= 2.  The usual way to build test and demo germs.
    """
    n = S.n
    J = jordan_matrix(S)
    comps = []
    for j in range(1, n + 1):
        coeffs = {}
        for i in range(n):
            if J[j - 1][i]:
                e = [0] * n
                e[i] = 1
                coeffs[tuple(e)] = J[j - 1][i]
        for (jj, exps), c in terms.items():
            if jj != j:
                continue
            if sum(exps) < 2:
                raise PreconditionViolated(
                    "extra terms must have degree >= 2; the linear part "
                    "comes from the structure"
                )
            ee = tuple(exps)
            add = c if isinstance(c, GaussianRational) else GaussianRational(c)
            coeffs[ee] = coeffs.get(ee, GaussianRational(0)) + add
        comps.append(TruncatedSeries(n, cap, coeffs))
    return InputGerm(S, PolyMapGerm(comps))


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
        J = jordan_matrix(structure)
        L = polymap.linear_matrix()
        for i in range(structure.n):
            for j in range(structure.n):
                if L[i][j] != J[i][j]:
                    raise NotJordan(
                        "linear part entry (%d,%d) is %s, expected %s"
                        % (i + 1, j + 1, L[i][j], J[i][j])
                    )
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


def _push_through_monomials(f, forward, cap):
    """f(z) with z_j replaced by the forward monomials, truncated at cap.

    Each input term maps to a single monomial in w, so this is exponent
    bookkeeping, not general composition.
    """
    nvars = len(forward[0])
    out = {}
    for e, c in f.coeffs.items():
        new = [0] * nvars
        for j, p in enumerate(e):
            if not p:
                continue
            row = forward[j]
            for i in range(nvars):
                if row[i]:
                    new[i] += p * row[i]
        if sum(new) > cap:
            continue
        key = tuple(new)
        prev = out.get(key)
        out[key] = c if prev is None else prev + c
    out = {e: c for e, c in out.items() if c}
    return TruncatedSeries(nvars, cap, out, _canonical=True)


def lift(F, k, D):
    """The stage-k lift of F in the distinguished chart, truncated at D."""
    S = F.structure
    if not 1 <= k <= S.ell:
        raise PreconditionViolated("stage %d out of range 1..%d" % (k, S.ell))
    if D < 2:
        raise PreconditionViolated("cap must be at least 2")
    pf = projection_formulas(S, k)
    n = S.n
    comps = []
    for i in range(1, n + 1):
        texp = pf.inverse_exponents(i)
        pos = [(j, t) for j, t in enumerate(texp) if t > 0]
        neg = [(j, -t) for j, t in enumerate(texp) if t < 0]
        if not pos:
            raise PreconditionViolated(
                "inverse exponent row %d has no positive entries" % i
            )

        def product(pairs, budget):
            acc = None
            for j, t in pairs:
                fj = _push_through_monomials(
                    F.map.components[j], pf.forward, budget
                )
                fac = series_power(fj, t) if t != 1 else fj
                acc = fac if acc is None else series_multiply(acc, fac)
            return acc

        if neg:
            # The denominator must be monomial * unit: that is exactly the
            # non-degeneracy required for the lift to exist in this chart.
            bound = sum(
                t * sum(pf.forward_monomial(j + 1)) for j, t in neg
            )
            den = product(neg, bound + D)
            low = den.low_degree()
            if low is None:
                raise DivisionObstruction(
                    "denominator vanishes identically at this cap",
                    stage=k,
                    component=i,
                )
            lead = list(den.homogeneous_part(low).coeffs)
            if len(lead) != 1:
                raise DivisionObstruction(
                    "denominator is not a monomial times a unit",
                    stage=k,
                    component=i,
                )
            c_den = lead[0]
            try:
                den_unit = monomial_divide(den, c_den)
            except DivisionObstruction:
                raise DivisionObstruction(
                    "denominator is not a monomial times a unit",
                    stage=k,
                    component=i,
                )
        else:
            c_den = (0,) * n
            den_unit = None

        num = product(pos, sum(c_den) + D)
        try:
            quot = monomial_divide(num, c_den)
        except DivisionObstruction:
            raise DivisionObstruction(
                "numerator lacks the denominator's monomial content",
                stage=k,
                component=i,
            )
        if den_unit is not None:
            quot = series_multiply(
                quot.truncated(D), series_reciprocal(den_unit.truncated(D))
            )
        else:
            quot = quot.truncated(D)
        if quot.constant_term():
            raise DivisionObstruction(
                "lifted component does not fix the distinguished point",
                stage=k,
                component=i,
            )
        comps.append(quot)
    germ = PolyMapGerm(comps)
    return LiftedMap(structure=S, stage=k, cap=D, series=germ, formulas=pf)


def lifted_linear_part(L):
    """Linear part of the lifted germ plus its eigenvalue multiset.

    The multiset is exact whenever the characteristic polynomial splits over
    the diagonal entries (always the case for the final-stage lifts this
    package produces, and for the intermediate unipotent stages).
    """
    mat = L.series.linear_matrix()
    multis = eigenvalues_from_diagonal_candidates(mat)
    if multis is None:
        import numpy as np

        arr = np.array(
            [[x.to_complex() for x in row] for row in mat], dtype=complex
        )
        vals = np.linalg.eigvals(arr)
        grouped = []
        for v in vals:
            for g in grouped:
                if abs(v - g[0]) < 1e-9:
                    g[1] += 1
                    break
            else:
                grouped.append([v, 1])
        multis = {complex(v): c for v, c in grouped}
    return mat, multis


def expected_eigenvalue_multiset(S):
    """The predicted final-stage eigenvalue multiset for structure S."""
    lam1 = S.lam[0]
    if S.has_equal_top_blocks():
        top = lam1 * lam1 / S.lam[1]
    else:
        top = lam1
    multis = {}

    def bump(v, c):
        for key in multis:
            if key == v:
                multis[key] += c
                return
        multis[v] = c

    bump(top, 1)
    if S.mu[0] > 1:
        bump(GaussianRational(1), S.mu[0] - 1)
    for l in range(1, S.rho):
        bump(S.lam[l] / lam1, S.mu[l])
    return multis


def is_diagonalizable(mat):
    """Exact certificate: the minimal polynomial of the exact matrix is
    squarefree."""
    if not all(isinstance(x, GaussianRational) for row in mat for x in row):
        raise PreconditionViolated(
            "diagonalizability is decided for exact matrices only")
    return is_squarefree(minimal_polynomial(mat))


@dataclass(frozen=True)
class ChartQuadraticForm:
    """The n-tuple of quadratic forms of a lifted germ: component j has
    symmetric coefficient matrix Q_j, so the quadratic part evaluates as
    v^T Q_j v."""

    n: int
    matrices: tuple  # n symmetric n x n matrices of exact scalars

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
            total = 0 * v[0] if v else GaussianRational(0)
        return total

    def entry(self, j, h, k):
        """Symmetric coefficient; the w_h w_k monomial coefficient is twice
        this for h != k."""
        return self.matrices[j - 1][h - 1][k - 1]

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
    one = GaussianRational(1)

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
            g = got.get(e, GaussianRational(0))
            w = want.get(e, GaussianRational(0))
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
    lift is correct)."""
    S = F.structure
    pf = L.formulas
    D = L.cap
    n = S.n
    cache = {}

    def lifted_power(i, p):
        key = (i, p)
        if key not in cache:
            cache[key] = series_power(L.series.components[i], p)
        return cache[key]

    resid = []
    for j in range(1, n + 1):
        row = pf.forward_monomial(j)
        lhs = None
        for i, p in enumerate(row):
            if not p:
                continue
            f = lifted_power(i, p)
            lhs = f if lhs is None else series_multiply(lhs, f)
        rhs = _push_through_monomials(F.map.components[j - 1], pf.forward, D)
        resid.append(lhs - rhs)
    return resid


def verify_semiconjugacy(F, L):
    return all(r.is_zero() for r in semiconjugacy_residual(F, L))
