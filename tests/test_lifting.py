import random
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import pytest

from blowdyn import lifting, series
from blowdyn.blowup import projection_formulas
from blowdyn.errors import DivisionObstruction, NotJordan, PreconditionViolated
from blowdyn.exactalg import invert_matrix
from blowdyn.lifting import (
    InputGerm,
    compare_quadratic_with_prediction,
    expected_eigenvalue_multiset,
    germ_from_terms,
    is_diagonalizable,
    jordan_matrix,
    lift,
    lifted_linear_part,
    predicted_quadratic_table,
    semiconjugacy_residual,
    verify_semiconjugacy,
)
from blowdyn.partition import build_structure
from blowdyn.scalars import GaussianRational, parse_scalar
from blowdyn.series import (
    PolyMapGerm,
    TruncatedSeries,
    monomial_substitute,
    series_multiply,
    series_reciprocal,
)

from conftest import (
    STRUCTURES,
    TOWER_SHAPES,
    fatou_germ,
    mat_mul,
    partitions,
    rand_lambdas,
    rand_rat,
    random_germ,
)


def S_of(mu, lam=None):
    if lam is None:
        lam = tuple(GaussianRational(1) for _ in mu)
    return build_structure(mu, lam)


# -- germ construction -----------------------------------------------------

def test_jordan_matrix_shape():
    S = S_of((2, 1), (GaussianRational(2), GaussianRational(3)))
    J = jordan_matrix(S)
    want = [["2", "1", "0"], ["0", "2", "0"], ["0", "0", "3"]]
    assert [[str(x) for x in row] for row in J] == want


def test_germ_from_terms_builds_the_linear_part():
    F = fatou_germ()
    L = F.map.linear_matrix()
    assert [[str(x) for x in row] for row in L] == [["1", "1"], ["0", "1"]]
    assert F.a(2, 1, 1) == GaussianRational(1)
    assert F.is_generic()


def test_germ_from_terms_rejects_low_degree_extras():
    S = S_of((2,))
    with pytest.raises(PreconditionViolated):
        germ_from_terms(S, {(1, (0, 1)): GaussianRational(5)})


@pytest.mark.parametrize("j", [0, 3, -1])
def test_germ_from_terms_rejects_components_outside_the_map(j):
    S = S_of((2,))
    terms = {(j, (2, 0)): GaussianRational(5), (2, (0, 2)): GaussianRational(7)}
    with pytest.raises(PreconditionViolated):
        germ_from_terms(S, terms)


def test_germ_from_terms_takes_exact_coefficients_only():
    S = S_of((2,))
    with pytest.raises(PreconditionViolated):
        germ_from_terms(S, {(2, (2, 0)): 0.5})
    F = germ_from_terms(S, {(2, (2, 0)): Fraction(1, 2), (1, (1, 1)): "i"})
    assert F.map.components[1].coefficient((2, 0)) == \
        GaussianRational(Fraction(1, 2))
    assert F.map.components[0].coefficient((1, 1)) == GaussianRational(0, 1)


def test_germ_from_terms_places_each_term_as_given():
    S = S_of((2, 1), (GaussianRational(2), GaussianRational(-1)))
    F = germ_from_terms(S, {
        (1, (2, 0, 0)): Fraction(1, 3),
        (1, (0, 0, 2)): 0,
        (2, (1, 1, 1)): 5,
        (3, (0, 1, 1)): GaussianRational(0, 2),
    }, cap=3)
    q = GaussianRational
    assert [s.coeffs for s in F.map.components] == [
        {(1, 0, 0): q(2), (0, 1, 0): q(1), (2, 0, 0): q(Fraction(1, 3))},
        {(0, 1, 0): q(2), (1, 1, 1): q(5)},
        {(0, 0, 1): q(-1), (0, 1, 1): q(0, 2)},
    ]


def test_input_germ_rejects_wrong_linear_part():
    S = S_of((2,))
    w1 = TruncatedSeries.variable(1, 2, 2)
    w2 = TruncatedSeries.variable(2, 2, 2)
    bad = PolyMapGerm([w1 + 2 * w2, w2])  # off-diagonal 2 instead of 1
    with pytest.raises(NotJordan):
        InputGerm(S, bad)


def test_input_germ_reads_the_linear_part_off_the_integer_form():
    """InputGerm's check on the integer forms against the comparison of
    the scalar matrices: on Jordan parts with complex, imaginary and
    fractional eigenvalues, each refused (with the first differing entry
    named) exactly when one entry is moved, dropped or added."""
    rng = random.Random(28)
    q = GaussianRational
    lams = [q(1), q(0, 1), q(0, -1), q(Fraction(-2, 3), Fraction(1, 5)),
            q(Fraction(7, 4))]
    verdicts = set()
    for mu in [(2,), (3,), (3, 1), (2, 2), (2, 1, 1)]:
        S = S_of(mu, tuple(rng.choice(lams) for _ in mu))
        n, J = S.n, jordan_matrix(S)
        for _ in range(12):
            entries = {(i, h): J[i][h] for i in range(n) for h in range(n)}
            row, col = rng.randrange(n), rng.randrange(n)
            entries[row, col] = rng.choice([q(0), q(1), J[row][col], q(0, 1),
                                            J[row][col] + q(Fraction(1, 3))])
            comps = [TruncatedSeries(n, 3, {
                **{tuple(int(k == h) for k in range(n)): entries[i, h]
                   for h in range(n)},
                (2,) + (0,) * (n - 1): q(Fraction(i + 1, 5))})
                for i in range(n)]
            g = PolyMapGerm(comps)
            L = g.linear_matrix()
            bad = [(a, b) for a in range(n) for b in range(n)
                   if L[a][b] != J[a][b]]
            verdicts.add(bool(bad))
            if not bad:
                assert InputGerm(S, g).map is g
                continue
            a, b = bad[0]
            with pytest.raises(NotJordan) as info:
                InputGerm(S, g)
            assert str(info.value) == (
                "linear part entry (%d,%d) is %s, expected %s"
                % (a + 1, b + 1, L[a][b], J[a][b]))
    assert verdicts == {False, True}


def test_germs_must_fix_the_origin():
    w1 = TruncatedSeries.variable(1, 2, 2)
    w2 = TruncatedSeries.variable(2, 2, 2)
    for c in (GaussianRational(1), GaussianRational(0, -1)):
        with pytest.raises(PreconditionViolated, match="fix the origin"):
            PolyMapGerm([w1, w2 + TruncatedSeries.constant(c, 2, 2)])
    assert PolyMapGerm([w1, w2 + w1 * w1]).n == 2


def test_map_parser_and_germ_from_terms_share_one_form_builder(monkeypatch):
    """Both routes build every component through series._form_of, and
    agree on the germ."""
    from blowdyn import cli

    built = []

    def counted(terms):
        built.append(len(terms))
        return form_of(terms)

    form_of = series._form_of
    monkeypatch.setattr(series, "_form_of", counted)
    doc = {"dim": 3, "blocks": [{"mu": 2, "lambda": "1/2+i"},
                                {"mu": 1, "lambda": "-3"}],
           "terms": [{"j": 2, "exp": [2, 0, 0], "coeff": "-2/3+1/5i"},
                     {"j": 3, "exp": [0, 1, 2], "coeff": "7"}],
           "options": {"degree_cap": 3}}
    F, _ = cli.parse_map_spec(doc)
    G = germ_from_terms(F.structure, {(2, (2, 0, 0)): "-2/3+1/5i",
                                      (3, (0, 1, 2)): 7}, cap=3)
    assert built == [2, 2, 2] * 2
    assert F.map == G.map


def test_leading_coefficient_and_symmetrization():
    S = S_of((3,))
    F = germ_from_terms(S, {
        (3, (2, 0, 0)): GaussianRational(Fraction(5, 7)),
        (1, (1, 1, 0)): GaussianRational(4),
    }, cap=2)
    assert F.leading_quadratic_coefficient() == GaussianRational(Fraction(5, 7))
    assert F.a(1, 1, 2) == GaussianRational(2)
    assert F.a(1, 2, 1) == GaussianRational(2)


# -- exact semiconjugacy ---------------------------------------------------

def test_semiconjugacy_all_structures_and_stages():
    rng = random.Random(101)
    for mu in STRUCTURES:
        F = random_germ(rng, mu, cap=3)
        S = F.structure
        for k in range(1, S.ell + 1):
            L = lift(F, k, 4)
            assert verify_semiconjugacy(F, L), (mu, k)


CORRUPTION_CASES = [(mu, i) for mu in [(2,), (3,), (2, 2), (3, 2), (4, 2),
                                        (2, 2, 1)]
                    for i in range(sum(mu))]


@pytest.mark.parametrize(
    "mu,i", CORRUPTION_CASES,
    ids=["%s-L%d" % ("x".join(map(str, mu)), i + 1)
         for mu, i in CORRUPTION_CASES])
def test_semiconjugacy_residual_catches_corruption(mu, i):
    """A bad term in lifted component i puts off the residual of exactly
    the rows whose product holds L_i, also the rows that reach L_i only
    through the product of the row below them."""
    F = random_germ(random.Random(31 * sum(mu) + i), mu, cap=3)
    S = F.structure
    rows = projection_formulas(S, S.ell).forward
    # a degree-1 bump moves row p's product first at degree |p|
    L = lift(F, S.ell, max(map(sum, rows)))
    assert verify_semiconjugacy(F, L)
    comps = list(L.series.components)
    comps[i] = comps[i] + TruncatedSeries.monomial(
        (1,) + (0,) * (S.n - 1), S.n, L.cap, GaussianRational(Fraction(1, 3)))
    corrupted = replace(L, series=PolyMapGerm(comps))
    assert not verify_semiconjugacy(F, corrupted)
    resid = semiconjugacy_residual(F, corrupted)
    assert [not r.is_zero() for r in resid] == [p[i] > 0 for p in rows]


def test_lift_preconditions():
    F = fatou_germ()
    with pytest.raises(PreconditionViolated):
        lift(F, 0, 3)
    with pytest.raises(PreconditionViolated):
        lift(F, 3, 3)  # ell = 2 for a single 2-block
    with pytest.raises(PreconditionViolated):
        lift(F, 1, 1)


def test_each_denominator_is_inverted_once_per_lift(monkeypatch):
    calls = []

    def counting(u):
        calls.append(u)
        return series_reciprocal(u)

    monkeypatch.setattr(lifting, "series_reciprocal", counting)
    rng = random.Random(19)
    for mu in TOWER_SHAPES:
        F = random_germ(rng, mu, cap=3)
        for k in range(1, F.structure.ell + 1):
            pf = projection_formulas(F.structure, k)
            dens = {h for row in pf.inverse
                    for h, t in enumerate(row) if t < 0}
            del calls[:]
            L = lift(F, k, 4)
            assert len(calls) == len(dens), (mu, k)
            assert verify_semiconjugacy(F, L), (mu, k)


def test_a_vanishing_denominator_is_reported_at_its_first_row():
    """A germ-like object whose component h is the zero series: the lift
    stops at the first row that divides by F_h, naming stage and row."""
    rng = random.Random(23)
    for mu in STRUCTURES:
        F = random_germ(rng, mu, cap=3)
        S = F.structure
        for k in range(1, S.ell + 1):
            pf = projection_formulas(S, k)
            for h in pf.required_nonzero:
                comps = list(F.map.components)
                comps[h - 1] = TruncatedSeries.zero(S.n, 3)
                germ = SimpleNamespace(structure=S,
                                       map=SimpleNamespace(components=comps))
                first = next(i for i, row in enumerate(pf.inverse, start=1)
                             if row[h - 1] < 0)
                with pytest.raises(DivisionObstruction) as info:
                    lift(germ, k, 4)
                assert (info.value.stage, info.value.component) == (k, first)
                assert str(info.value) == (
                    "denominator vanishes identically at this cap "
                    "[stage %d, component %d]" % (k, first))


def test_known_planar_lift():
    # first stage of (z1 + z2, z2 + z1^2) in the distinguished chart:
    # u1 = z1, u2 = z2/z1
    F = fatou_germ()
    L = lift(F, 1, 3)
    u1, u2 = L.series.components
    # u1 -> u1 (1 + u2)
    assert u1.coefficient((1, 0)) == GaussianRational(1)
    assert u1.coefficient((1, 1)) == GaussianRational(1)
    # u2 -> (u2 + u1) / (1 + u2) = u1 + u2 - u1 u2 - u2^2 + ...
    assert u2.coefficient((1, 0)) == GaussianRational(1)
    assert u2.coefficient((0, 1)) == GaussianRational(1)
    assert u2.coefficient((1, 1)) == GaussianRational(-1)
    assert u2.coefficient((0, 2)) == GaussianRational(-1)


def divisor_action_mismatches(F, D=3):
    """Degree-by-degree check that the stage-1 lift restricted to the
    exceptional locus is the projectivized differential.

    In the distinguished stage-1 chart the exceptional locus is w_1 = 0 and
    the restricted components j >= 2 must equal u -> (dF(1,u))_j/(dF(1,u))_1
    as series in (w_2,...,w_n).  Returns a list of component indices that
    disagree (empty = consistent).
    """
    S = F.structure
    n = S.n
    L1 = lift(F, 1, D)
    J = jordan_matrix(S)
    # build dF (1, u)_j as series in u_2..u_n (n-1 variables), cap D
    rows = []
    for j in range(n):
        coeffs = {}
        e0 = (0,) * (n - 1)
        if J[j][0]:
            coeffs[e0] = J[j][0]
        for k in range(1, n):
            if J[j][k]:
                e = [0] * (n - 1)
                e[k - 1] = 1
                coeffs[tuple(e)] = J[j][k]
        rows.append(TruncatedSeries(n - 1, D, coeffs))
    denom_inv = series_reciprocal(rows[0])
    bad = []
    for j in range(2, n + 1):
        target = series_multiply(rows[j - 1], denom_inv)
        comp = L1.component(j)
        restricted = {}
        for e, c in comp.coeffs.items():
            if e[0] == 0:
                restricted[tuple(e[1:])] = c
        got = TruncatedSeries(n - 1, D, restricted)
        if got != target:
            bad.append(j)
    return bad


def push_through_monomials(f, forward, cap):
    """Term-by-term reference for monomial_substitute: f(z) with z_j
    replaced by the monomial w^forward[j], truncated at cap, one Gaussian
    rational per term, colliding terms summed."""
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
    return TruncatedSeries(nvars, cap, out)


def test_monomial_substitute_matches_the_term_by_term_reference():
    rng = random.Random(808)
    truncated = 0
    for mu in STRUCTURES:
        F = random_germ(rng, mu, cap=2)
        n = F.structure.n
        # complex coefficients with assorted denominators, degrees 2..4
        terms = {}
        for _ in range(3 * n):
            e = [0] * n
            for _ in range(rng.randint(2, 4)):
                e[rng.randrange(n)] += 1
            terms[(rng.randint(1, n), tuple(e))] = GaussianRational(
                rand_rat(rng, span=9), rand_rat(rng, span=9))
        G = germ_from_terms(F.structure, terms, cap=4)
        for k in range(1, F.structure.ell + 1):
            forward = projection_formulas(F.structure, k).forward
            for f in F.map.components + G.map.components:
                top = max(sum(p * sum(row) for p, row in zip(e, forward))
                          for e in f.coeffs)
                for budget in range(0, top + 2):
                    got = monomial_substitute(f, forward, budget)
                    want = push_through_monomials(f, forward, budget)
                    assert (got.nvars, got.cap) == (n, budget)
                    assert got._form == want._form, (mu, k, budget)
                    truncated += 0 < len(got.coeffs) < len(f.coeffs)
    assert truncated > 100


def test_divisor_restriction_is_projectivized_differential():
    rng = random.Random(55)
    for mu in STRUCTURES:
        F = random_germ(rng, mu, cap=2)
        assert divisor_action_mismatches(F, D=3) == [], mu


# -- linear part after the full sequence ----------------------------------

def test_final_eigenvalues_single_block():
    F = fatou_germ()
    L = lift(F, 2, 2)
    _, multis = lifted_linear_part(L)
    assert multis == {GaussianRational(1): 2}


def test_final_eigenvalues_random_structures():
    rng = random.Random(303)
    for mu in STRUCTURES:
        for _ in range(3):
            F = random_germ(rng, mu, cap=2)
            S = F.structure
            L = lift(F, S.ell, 2)
            _, multis = lifted_linear_part(L)
            assert multis == expected_eigenvalue_multiset(S), mu


def test_tied_top_blocks_shift_the_leading_eigenvalue():
    lam = (GaussianRational(2), GaussianRational(3))
    rng = random.Random(7)
    F = random_germ(rng, (2, 2), lam=lam, cap=2)
    S = F.structure
    want = expected_eigenvalue_multiset(S)
    # leading eigenvalue lambda_1^2 / lambda_2 = 4/3
    assert any(k == GaussianRational(Fraction(4, 3)) and c == 1
               for k, c in want.items())
    L = lift(F, S.ell, 2)
    _, multis = lifted_linear_part(L)
    assert multis == want


def test_lifted_linear_part_becomes_diagonalizable():
    # eigenvalue ratios chosen pairwise distinct, so the final-stage
    # linear part must admit a full eigenbasis even though the input
    # linear part does not
    rng = random.Random(17)
    lam = (GaussianRational(2), GaussianRational(5))
    F = random_germ(rng, (3, 2), lam=lam, cap=2)
    S = F.structure
    J = jordan_matrix(S)
    assert not is_diagonalizable(J)
    L = lift(F, S.ell, 2)
    M, _ = lifted_linear_part(L)
    assert is_diagonalizable(M)
    # the certificate is exact: floating-point matrices are refused
    with pytest.raises(PreconditionViolated):
        is_diagonalizable([[x.to_complex() for x in row] for row in M])


def test_every_lifted_linear_part_is_triangular_under_some_ordering():
    # every stage of every structure with n <= 7, with unipotent, random
    # and tied eigenvalues and random quadratic terms: lifted_linear_part
    # raises unless some ordering makes the linear part triangular, and at
    # the last stage the multiset is the closed form
    rng = random.Random(29)
    checked = 0
    for n in range(2, 8):
        for mu in partitions(n):
            if mu[0] < 2:
                continue
            tied = GaussianRational(rand_rat(rng, nonzero=True))
            for lam in ((GaussianRational(1),) * len(mu),
                        rand_lambdas(rng, len(mu)), (tied,) * len(mu)):
                F = random_germ(rng, mu, lam=lam, cap=2)
                S = F.structure
                for k in range(1, S.ell + 1):
                    _, multis = lifted_linear_part(lift(F, k, 2))
                    checked += 1
                assert multis == expected_eigenvalue_multiset(S), (mu, lam)
    assert checked == 3 * 132


def _random_unit_upper(rng, n):
    return [[GaussianRational(1) if i == j else
             GaussianRational(rand_rat(rng, span=3), rand_rat(rng, span=3))
             if i < j else GaussianRational(0)
             for j in range(n)] for i in range(n)]


def _conjugated(u, t, p):
    """u t u^-1 with its indices reordered by the permutation p."""
    m = mat_mul(mat_mul(u, t), invert_matrix(u))
    return [[m[i][j] for j in p] for i in p]


def test_is_diagonalizable_against_constructed_answers():
    # U D U^-1 is diagonalizable, U (D + N) U^-1 is not when N couples two
    # equal diagonal entries; U is unit upper-triangular, so both are
    # triangular, and a random reordering of the indices hides it
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randint(2, 6)
        values = [GaussianRational(rng.randint(-2, 2), rng.randint(-1, 1))
                  for _ in range(rng.randint(1, n - 1))]
        diag = [rng.choice(values) for _ in range(n)]
        a, b = sorted(rng.sample(range(n), 2))
        diag[b] = diag[a]
        d = [[diag[i] if i == j else GaussianRational(0) for j in range(n)]
             for i in range(n)]
        u = _random_unit_upper(rng, n)
        p = list(range(n))
        rng.shuffle(p)
        M = _conjugated(u, d, p)
        assert is_diagonalizable(M)
        d[a][b] = GaussianRational(1)
        assert not is_diagonalizable(_conjugated(u, d, p))


def test_a_matrix_no_ordering_makes_triangular_is_refused():
    one, zero = GaussianRational(1), GaussianRational(0)
    swap = [[zero, one], [one, zero]]
    with pytest.raises(PreconditionViolated):
        is_diagonalizable(swap)
    L = lift(fatou_germ(), 1, 2)
    swapped = PolyMapGerm([TruncatedSeries(2, 2, {(0, 1): one}),
                           TruncatedSeries(2, 2, {(1, 0): one})])
    assert swapped.linear_matrix() == swap
    with pytest.raises(PreconditionViolated):
        lifted_linear_part(replace(L, series=swapped))


# -- quadratic part of the final lift --------------------------------------

def test_predicted_quadratic_rows_for_the_planar_example():
    F = fatou_germ()
    table, ambiguous = predicted_quadratic_table(F)
    assert ambiguous == []
    assert table[1] == {(2, 0): GaussianRational(-1),
                        (1, 1): GaussianRational(2)}
    assert table[2] == {(1, 1): GaussianRational(1),
                        (0, 2): GaussianRational(-1)}


def test_quadratic_comparison_random_structures():
    rng = random.Random(404)
    for mu in STRUCTURES:
        for _ in range(3):
            F = random_germ(rng, mu, cap=2)
            S = F.structure
            L = lift(F, S.ell, 2)
            out = compare_quadratic_with_prediction(L, F)
            assert out["mismatches"] == [], (mu, out["mismatches"])
            if not out["ambiguous_rows"]:
                assert out["matches"]


def test_quadratic_comparison_requires_final_stage():
    F = fatou_germ()
    L = lift(F, 1, 2)
    with pytest.raises(PreconditionViolated):
        compare_quadratic_with_prediction(L, F)


def test_scalar_parse_used_by_structures():
    S = build_structure((2,), (parse_scalar("1/2"),))
    F = germ_from_terms(S, {(2, (2, 0)): GaussianRational(1)}, cap=2)
    L = lift(F, 2, 2)
    assert verify_semiconjugacy(F, L)
