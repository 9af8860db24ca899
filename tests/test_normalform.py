import random
from fractions import Fraction

import pytest

from blowdyn.errors import GenericInput, PreconditionViolated
from blowdyn.lifting import germ_from_terms
from blowdyn.normalform import (
    QuadraticTuple,
    correction_image,
    diagonal_cutoff,
    eliminate_offdiagonal,
    epsilon_vector,
    invariants_2d,
    leading_epsilon_column,
    normal_form,
    reduce_diagonal_tail,
    toeplitz_upper,
)
from blowdyn.partition import build_structure
from blowdyn.scalars import GaussianRational
from blowdyn.series import PolyMapGerm, TruncatedSeries, germ_inverse

from conftest import fatou_germ, random_germ

Q = GaussianRational
ZERO = Q(0)


def unipotent_germ(n, terms, cap=2):
    S = build_structure((n,), (Q(1),))
    return germ_from_terms(S, terms, cap=cap)


def toeplitz_germ(alpha, n, cap):
    """The linear germ of the upper Toeplitz matrix with first row alpha."""
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


def conjugated(F, alpha, cap):
    Tg = toeplitz_germ(alpha, F.structure.n, cap)
    return germ_inverse(Tg, cap).compose(F.map.compose(Tg))


# -- reduction building blocks --------------------------------------------

def test_correction_operator_shifts_and_sums():
    b = ((Q(1), Q(2)), (Q(2), Q(0)))
    l = correction_image(b)
    # L(B)_{hk} = B_{h-1,k-1} + B_{h,k-1} + B_{h-1,k}
    assert l[0][0] == ZERO
    assert l[0][1] == Q(1)
    assert l[1][0] == Q(1)
    assert l[1][1] == Q(5)


def test_eliminate_cross_term_planar():
    # the z1 z2 form dies, absorbed through the (1,1) entry of B
    b, red = eliminate_offdiagonal([[Q(0), Q(1)], [Q(1), Q(0)]])
    assert all(x == ZERO for row in red for x in row)
    assert b[0][0] == Q(1)


def test_eliminate_keeps_leading_square():
    a = [[Q(1), Q(0)], [Q(0), Q(0)]]
    b, red = eliminate_offdiagonal(a)
    assert red == ((Q(1), ZERO), (ZERO, ZERO))


def test_eliminate_retains_allowed_square_in_dimension_three():
    # z2^2 sits at the cutoff index of n = 3 and must survive
    a = [[ZERO] * 3 for _ in range(3)]
    a[1][1] = Q(1)
    _, red = eliminate_offdiagonal(a)
    assert red[1][1] == Q(1)
    assert sum(1 for i in range(3) for j in range(3) if red[i][j]) == 1


def test_eliminate_random_shape_contract():
    rng = random.Random(21)
    for n in (2, 3, 4, 5):
        cut = diagonal_cutoff(n)
        for _ in range(10):
            a = [[ZERO] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    c = Q(Fraction(rng.randint(-4, 4), rng.randint(1, 4)))
                    a[i][j] = c
                    a[j][i] = c
            _, red = eliminate_offdiagonal(a)
            for i in range(n):
                for j in range(n):
                    if i != j:
                        assert red[i][j] == ZERO
                if i >= cut:
                    assert red[i][i] == ZERO
            assert red[0][0] == a[0][0]


def test_tail_reduction_kills_late_square_planar():
    # in dimension 2 the z2^2 square sits beyond the cutoff: fully removable
    a = ((ZERO, ZERO), (ZERO, Q(1)))
    alpha, _, red = reduce_diagonal_tail(a)
    assert all(x == ZERO for row in red for x in row)
    assert alpha[0] == Q(1)


def test_tail_reduction_keeps_early_square_dimension_four():
    a = [[ZERO] * 4 for _ in range(4)]
    a[1][1] = Q(1)
    alpha, _, red = reduce_diagonal_tail(tuple(map(tuple, a)))
    want = alpha[0] * alpha[0] * Q(1)
    for i in range(4):
        for j in range(4):
            assert red[i][j] == (want if i == j == 1 else ZERO)


def test_tail_reduction_rejects_nondiagonal_input():
    with pytest.raises(PreconditionViolated):
        reduce_diagonal_tail(((ZERO, Q(1)), (Q(1), ZERO)))


# -- full normal form ------------------------------------------------------

def test_planar_example_is_already_normal():
    F = fatou_germ()
    nf = normal_form(F)
    assert nf.normalized == F.map
    assert nf.j0 == 1
    assert epsilon_vector(nf) == (ZERO, Q(1))
    assert nf.epsilon == ((ZERO, ZERO), (Q(1), ZERO))
    assert leading_epsilon_column(nf) == (1, (ZERO, Q(1)))


def test_normal_form_shape_random():
    rng = random.Random(77)
    for n in (2, 3, 4, 5):
        cut = diagonal_cutoff(n)
        for _ in range(5):
            F = random_germ(rng, (n,), lam=("1",), cap=2,
                            force_generic=False)
            nf = normal_form(F)
            g = nf.normalized
            for h in range(1, n + 1):
                for i in range(1, n + 1):
                    for j in range(1, n + 1):
                        c = g.quadratic_coefficient(h, i, j)
                        if i != j:
                            assert c == ZERO, (n, h, i, j)
                        elif i > cut:
                            assert c == ZERO, (n, h, i)
            last_sq = [k for k in range(1, n + 1)
                       if g.quadratic_coefficient(n, k, k)]
            assert len(last_sq) <= 1
            if last_sq:
                assert nf.j0 == last_sq[0] <= cut


def test_conjugation_identity_exact():
    rng = random.Random(78)
    for n in (2, 3, 4):
        for _ in range(5):
            F = random_germ(rng, (n,), lam=("1",), cap=2,
                            force_generic=False)
            nf = normal_form(F)
            assert (nf.conjugator.compose(nf.normalized)
                    == F.map.compose(nf.conjugator))


def test_conjugation_identity_modulo_degree_three_at_cap_three():
    # the reported conjugator is the degree-2 truncation of the map that
    # built the normal form, so at cap 3 the identity holds below degree 3
    rng = random.Random(79)
    for n in (2, 3, 4):
        for _ in range(3):
            F = random_germ(rng, (n,), lam=("1",), cap=3,
                            force_generic=False)
            nf = normal_form(F)
            lhs = nf.conjugator.compose(nf.normalized)
            rhs = F.map.compose(nf.conjugator)
            assert lhs.truncated(2) == rhs.truncated(2)


def test_normal_form_requires_unipotent_single_block():
    rng = random.Random(79)
    F = random_germ(rng, (2,), lam=("2",), cap=2)
    with pytest.raises(Exception):
        normal_form(F)


def test_epsilon_vector_scales_under_toeplitz_conjugation():
    rng = random.Random(80)
    for n in (2, 3, 4):
        F = random_germ(rng, (n,), lam=("1",), cap=2, force_generic=False)
        v1 = epsilon_vector(normal_form(F))
        alpha = [Q(Fraction(rng.randint(1, 5), rng.randint(1, 4)))]
        alpha += [Q(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
                  for _ in range(n - 1)]
        G = conjugated(F, alpha, 2)
        v2 = epsilon_vector(normal_form(G))
        pairs = [(a, b) for a, b in zip(v1, v2) if a or b]
        if not pairs:
            continue
        a0, b0 = pairs[0]
        assert a0 and b0
        r = b0 / a0
        assert all(b == r * a for a, b in pairs)


# -- planar invariants -----------------------------------------------------

def nongeneric_planar(a111, a212, a2111):
    return unipotent_germ(2, {
        (1, (2, 0)): Q(a111),
        (2, (1, 1)): Q(2) * Q(a212),
        (2, (3, 0)): Q(a2111),
    }, cap=3)


def test_invariants_worked_example():
    # (z1 + z2 + z1^2, z2 + z1 z2)
    F = nongeneric_planar(1, Fraction(1, 2), 0)
    inv = invariants_2d(F)
    assert inv.epsilon == Q(Fraction(3, 2))
    assert inv.eta == Q(Fraction(1, 4))
    assert inv.xi == Q(Fraction(1, 9))


def test_invariants_xi_none_when_linear_part_vanishes():
    F = nongeneric_planar(1, -1, 2)
    inv = invariants_2d(F)
    assert inv.epsilon == ZERO
    assert inv.eta == Q(8)
    assert inv.xi is None


def test_invariants_reject_generic_input():
    with pytest.raises(GenericInput):
        invariants_2d(fatou_germ())


def test_invariants_preconditions():
    F = nongeneric_planar(1, 0, 0)
    with pytest.raises(PreconditionViolated):
        invariants_2d(germ_from_terms(F.structure, {}, cap=2))  # cap < 3
    rng = random.Random(81)
    F3 = random_germ(rng, (3,), lam=("1",), cap=3)
    with pytest.raises(PreconditionViolated):
        invariants_2d(F3)


def test_invariants_scaling_law():
    rng = random.Random(82)
    for _ in range(10):
        F = nongeneric_planar(
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
        )
        inv = invariants_2d(F)
        a0 = Q(Fraction(rng.randint(1, 5), rng.randint(1, 4)))
        b = Q(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        G = conjugated(F, (a0, b), 3)
        inv2 = invariants_2d(G)
        assert inv2.epsilon == a0 * inv.epsilon
        assert inv2.eta == a0 * a0 * inv.eta
        if inv.epsilon:
            assert inv2.xi == inv.xi


def test_quadratic_tuple_from_germ():
    F = fatou_germ()
    qt = QuadraticTuple.from_germ(F.map)
    assert qt.n == 2
    assert qt.entry(2, 1, 1) == Q(1)
    assert qt.entry(1, 1, 1) == ZERO
    assert qt.value(2, (Q(3), Q(2))) == Q(9)
    assert qt.cubic_e1 == (ZERO, ZERO)
