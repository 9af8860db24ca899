import random
from dataclasses import replace
from fractions import Fraction

import pytest

from blowdyn.errors import NotJordan, PreconditionViolated
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
    series_multiply,
    series_reciprocal,
)

from conftest import STRUCTURES, fatou_germ, rand_lambdas, random_germ


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


def test_input_germ_rejects_wrong_linear_part():
    S = S_of((2,))
    w1 = TruncatedSeries.variable(1, 2, 2)
    w2 = TruncatedSeries.variable(2, 2, 2)
    bad = PolyMapGerm([w1 + 2 * w2, w2])  # off-diagonal 2 instead of 1
    with pytest.raises(NotJordan):
        InputGerm(S, bad)


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


def test_semiconjugacy_residual_catches_corruption():
    F = fatou_germ()
    L = lift(F, 1, 3)
    assert verify_semiconjugacy(F, L)
    comp0 = L.series.components[0]
    bump = TruncatedSeries.monomial((0, 2), 2, comp0.cap,
                                    GaussianRational(Fraction(1, 3)))
    bad = PolyMapGerm([comp0 + bump, L.series.components[1]])
    corrupted = replace(L, series=bad)
    assert not verify_semiconjugacy(F, corrupted)
    resid = semiconjugacy_residual(F, corrupted)
    assert any(not r.is_zero() for r in resid)


def test_lift_preconditions():
    F = fatou_germ()
    with pytest.raises(PreconditionViolated):
        lift(F, 0, 3)
    with pytest.raises(PreconditionViolated):
        lift(F, 3, 3)  # ell = 2 for a single 2-block
    with pytest.raises(PreconditionViolated):
        lift(F, 1, 1)


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


def test_divisor_restriction_is_projectivized_differential():
    rng = random.Random(55)
    for mu in STRUCTURES:
        F = random_germ(rng, mu, cap=2)
        assert divisor_action_mismatches(F, D=3) == [], mu


# -- linear part after the full sequence ----------------------------------

def _multiset_eq(a, b):
    if len(a) != len(b):
        return False
    used = set()
    for k1, c1 in a.items():
        hit = None
        for k2, c2 in b.items():
            if id(k2) in used:
                continue
            if k1 == k2 and c1 == c2:
                hit = k2
                break
        if hit is None:
            return False
        used.add(id(hit))
    return True


def test_final_eigenvalues_single_block():
    F = fatou_germ()
    L = lift(F, 2, 2)
    _, multis = lifted_linear_part(L)
    assert _multiset_eq(multis, {GaussianRational(1): 2})


def test_final_eigenvalues_random_structures():
    rng = random.Random(303)
    for mu in STRUCTURES:
        for _ in range(3):
            F = random_germ(rng, mu, cap=2)
            S = F.structure
            L = lift(F, S.ell, 2)
            _, multis = lifted_linear_part(L)
            assert _multiset_eq(multis, expected_eigenvalue_multiset(S)), mu


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
    assert _multiset_eq(multis, want)


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
