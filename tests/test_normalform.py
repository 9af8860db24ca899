import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from blowdyn.errors import GenericInput, NotJordan, PreconditionViolated
from blowdyn.exactalg import imat, imat_rows, invert_matrix, solve_linear
from blowdyn.lifting import germ_from_terms
from blowdyn import normalform, series
from blowdyn.normalform import (
    diagonal_cutoff,
    epsilon_vector,
    invariants_2d,
    leading_epsilon_column,
    normal_form,
    toeplitz_inverse_row,
    toeplitz_upper,
)
from blowdyn.partition import build_structure
from blowdyn.scalars import GaussianRational
from blowdyn.series import (
    PolyMapGerm, TruncatedSeries, _quadratic_matrices, germ_inverse,
)

from conftest import fatou_germ, mat_mul, rand_rat, random_germ

Q = GaussianRational
ZERO = Q(0)


# -- the step functions on rows of exact scalars ----------------------------
# The module's step functions take and return integer matrices
# (exactalg.imat); these adapters convert at the test boundary.

def correction_image(b):
    return imat_rows(normalform.correction_image(imat(b)))


def conjugate_form(a, t):
    return imat_rows(normalform.conjugate_form(imat(a), imat(t)))


def transform_forms(forms, t, m, b):
    tinv = imat([toeplitz_inverse_row(t[0])])
    out = normalform.transform_forms([imat(p) for p in forms], imat(t), tinv,
                                     m, imat(b))
    return tuple(map(imat_rows, out))


def eliminate_offdiagonal(phi):
    b, red = normalform.eliminate_offdiagonal(imat(phi))
    return imat_rows(b), imat_rows(red)


def reduce_diagonal_tail(phi):
    alpha, b, red = normalform.reduce_diagonal_tail(imat(phi))
    return alpha, imat_rows(b), imat_rows(red)


def compose_steps(steps, n, cap):
    return normalform.compose_steps(
        [(None if t is None else imat(t), m, imat(b)) for t, m, b in steps],
        n, cap)


def scalar_correction_image(b):
    """L(B)_{hk} = B_{h-1,k-1} + B_{h,k-1} + B_{h-1,k} entry by entry, the
    out-of-range entries 0 (the scalar route)."""
    n = len(b)

    def at(i, j):
        return b[i][j] if i >= 0 and j >= 0 else ZERO
    return tuple(tuple(at(h - 1, k - 1) + at(h, k - 1) + at(h - 1, k)
                       for k in range(n)) for h in range(n))


def form_series(b, cap):
    """The quadratic form z^t B z as a truncated series."""
    n = len(b)
    coeffs = {}
    for h in range(n):
        for k in range(h, n):
            c = b[h][k] if h == k else b[h][k] + b[k][h]
            if c:
                e = [0] * n
                e[h] += 1
                e[k] += 1
                coeffs[tuple(e)] = c
    return TruncatedSeries(n, cap, coeffs)


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
    rng = random.Random(20)
    for n in range(1, 7):
        b = random_symmetric(rng, n)
        assert correction_image(b) == scalar_correction_image(b), n


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


def offdiagonal_system(n):
    """eliminate_offdiagonal's system as rows over the unknowns B_ij,
    i <= j, and the (h, k) entry of phi each row's right-hand side reads."""
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    targets = [(h, k) for h in range(n) for k in range(h + 1, n)]
    targets += [(h, h) for h in range(diagonal_cutoff(n), n)]
    rows = []
    for h, k in targets:
        row = [ZERO] * len(pairs)
        for i, j in ((h - 1, k - 1), (h, k - 1), (h - 1, k)):
            if i >= 0 and j >= 0:
                c = pairs.index((min(i, j), max(i, j)))
                row[c] = row[c] + Q(1)
        rows.append(row)
    return pairs, targets, rows


def reference_eliminate_offdiagonal(phi):
    """One solve_linear of the whole system per call (reference only)."""
    n = len(phi)
    pairs, targets, rows = offdiagonal_system(n)
    x, _ = solve_linear(rows, [phi[h][k] for h, k in targets])
    b = [[ZERO] * n for _ in range(n)]
    for (i, j), c in zip(pairs, x):
        b[i][j] = b[j][i] = c
    b = tuple(map(tuple, b))
    l = scalar_correction_image(b)
    red = tuple(tuple(phi[h][k] - l[h][k] for k in range(n))
                for h in range(n))
    return b, red


def test_offdiagonal_system_has_full_row_rank():
    # so every phi gives a consistent system, and one elimination per n
    # serves every right-hand side
    for n in range(2, 9):
        pairs, targets, rows = offdiagonal_system(n)
        _, basis = solve_linear(rows, [ZERO] * len(rows))
        assert len(pairs) - len(basis) == len(rows), n
        assert len(normalform._offdiagonal_operator(n)[1]) == len(rows), n


def test_eliminate_matches_one_solve_per_call():
    rng = random.Random(22)
    for n in range(2, 9):
        for _ in range(6):
            a = [[ZERO] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    if rng.random() < 0.7:
                        a[i][j] = a[j][i] = Q(rand_rat(rng, span=5),
                                              rand_rat(rng, span=5))
            a = tuple(map(tuple, a))
            assert eliminate_offdiagonal(a) \
                == reference_eliminate_offdiagonal(a), n


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


# -- one conjugation against the step-by-step series route ----------------

def jet_step(alpha, m, b, cap):
    """chi(z) = Tz + e_m z^t B z, with T the upper Toeplitz matrix of alpha."""
    comps = list(toeplitz_germ(alpha, len(alpha), cap).components)
    comps[m - 1] = comps[m - 1] + form_series(b, cap)
    return PolyMapGerm(comps)


def quad_matrices(g):
    n = g.n
    return tuple(
        tuple(tuple(g.quadratic_coefficient(j, h, k) for k in range(1, n + 1))
              for h in range(1, n + 1))
        for j in range(1, n + 1)
    )


def stepwise_normal_form(F):
    """The series route: conjugate the whole series after every reduction
    step and read the next quadratic matrix off the conjugated series.
    Returns (normalized, conjugator, alpha, epsilon, j0)."""
    g = F.map
    n, cap = g.n, g.cap
    unit = [Q(1)] + [ZERO] * (n - 1)
    steps = []

    def conjugate(work, chi):
        steps.append(chi)
        return germ_inverse(chi, cap).compose(work.compose(chi))

    psi, red = eliminate_offdiagonal(quad_matrices(g)[n - 1])
    work = conjugate(g, jet_step(unit, n, psi, cap))
    assert quad_matrices(work)[n - 1] == red
    alpha, psi, _ = reduce_diagonal_tail(red)
    work = conjugate(work, jet_step(alpha, n, psi, cap))
    for h in range(n - 1, 0, -1):
        psi, red = eliminate_offdiagonal(quad_matrices(work)[h - 1])
        work = conjugate(work, jet_step(unit, h, psi, cap))
        assert quad_matrices(work)[h - 1] == red
    chi = steps[0]
    for s in steps[1:]:
        chi = chi.compose(s)
    chi = chi.truncated(2).as_polynomial_cap(cap)
    eps = tuple(tuple(m[k][k] for k in range(n)) for m in quad_matrices(work))
    nonzero = [k for k in range(n) if eps[n - 1][k]]
    j0 = nonzero[0] + 1 if nonzero else None
    return work, chi, alpha, eps, j0


def random_unipotent_germ(rng, n, cap, last_has_leading_square=True):
    """Random terms of every degree 2..cap on the unipotent n-block; the
    z_1^2 term of the last component can be left out, which moves the
    surviving square of the normal form past index 1."""
    terms = {}
    for d in range(2, cap + 1):
        for mono in combinations_with_replacement(range(n), d):
            e = tuple(mono.count(i) for i in range(n))
            for j in range(1, n + 1):
                if rng.random() < (0.5 if d == 2 else 0.2):
                    c = rand_rat(rng, span=4)
                    if c:
                        terms[(j, e)] = Q(c)
    lead = (n, (2,) + (0,) * (n - 1))
    if last_has_leading_square:
        terms[lead] = Q(rand_rat(rng, nonzero=True, span=4))
    else:
        terms.pop(lead, None)
    return unipotent_germ(n, terms, cap)


def test_single_conjugation_matches_stepwise_series_route():
    rng = random.Random(83)
    late_squares = 0
    for n in (2, 3, 4, 5, 6):
        for cap in (2, 3):
            for leading in (True, False):
                F = random_unipotent_germ(rng, n, cap, leading)
                nf = normal_form(F)
                got = (nf.normalized, nf.conjugator, nf.alpha, nf.epsilon,
                       nf.j0)
                assert got == stepwise_normal_form(F), (n, cap, leading)
                if nf.j0 is not None and nf.j0 > 1:
                    late_squares += 1
    assert late_squares >= 4


def test_step_rule_with_toeplitz_linear_part():
    rng = random.Random(84)
    for n in (2, 3, 4):
        for cap in (2, 3):
            F = random_unipotent_germ(rng, n, cap)
            alpha = [Q(rand_rat(rng, nonzero=True, span=4))]
            alpha += [Q(rand_rat(rng, span=4)) for _ in range(n - 1)]
            identity = [Q(1)] + [ZERO] * (n - 1)
            b = [[ZERO] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    b[i][j] = b[j][i] = Q(rand_rat(rng, span=4))
            b = tuple(map(tuple, b))
            forms = quad_matrices(F.map)
            assert _quadratic_matrices(F.map) == forms
            for al in (alpha, identity):
                for m in range(1, n + 1):
                    chi = jet_step(al, m, b, cap)
                    G = germ_inverse(chi, cap).compose(F.map.compose(chi))
                    want = quad_matrices(G)
                    got = transform_forms(forms, toeplitz_upper(al), m, b)
                    assert got == want, (n, cap, m, al)
                    if al is identity:
                        # the shift-only steps of normal_form use the rule
                        # without the conjugation and the T^{-1} mix
                        got = normalform._shift_correct(
                            tuple(map(imat, forms)), m, imat(b))
                        assert tuple(map(imat_rows, got)) == want, (n, cap, m)


def random_symmetric(rng, n):
    b = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if rng.random() < 0.7:
                b[i][j] = b[j][i] = Q(rand_rat(rng, span=4),
                                      rand_rat(rng, span=2))
    return tuple(map(tuple, b))


def test_compose_steps_matches_the_composed_step_germs():
    # the reference is the old route: each step z -> Tz + e_m z^t B z as
    # a germ at the cap, and n full compositions chi_1 o ... o chi_{n+1}
    rng = random.Random(88)
    for n in range(2, 7):
        for cap in range(2, 6):
            alpha = [Q(1)] + [Q(rand_rat(rng, nonzero=True, span=4))
                              for _ in range(n - 1)]
            unit = [Q(1)] + [ZERO] * (n - 1)
            data = [(unit, n), (alpha, n)] + [(unit, h)
                                              for h in range(n - 1, 0, -1)]
            steps, germs = [], []
            for al, m in data:
                b = random_symmetric(rng, n)
                t = None if al is unit else toeplitz_upper(al)
                steps.append((t, m, b))
                germs.append(jet_step(al, m, b, cap))
            want = germs[0]
            for s in germs[1:]:
                want = want.compose(s)
            assert compose_steps(steps, n, cap) == want, (n, cap)


def scalar_conjugate_form(a, t):
    """T^t A T in GaussianRational arithmetic (the scalar route)."""
    return tuple(map(tuple, mat_mul(mat_mul(list(zip(*t)), a), t)))


def scalar_transform_forms(forms, t, m, b):
    """transform_forms in GaussianRational arithmetic, with T^{-1} from
    invert_matrix (the scalar route)."""
    n = len(forms)
    w = [scalar_conjugate_form(p, t) for p in forms]
    w[m - 1] = tuple(tuple(x - y for x, y in zip(rw, rl))
                     for rw, rl in zip(w[m - 1], scalar_correction_image(b)))
    if m > 1:
        w[m - 2] = tuple(tuple(x + y for x, y in zip(rw, rb))
                         for rw, rb in zip(w[m - 2], b))
    tinv = invert_matrix(t)
    return tuple(
        tuple(tuple(sum((tinv[i][k] * w[k][h][c] for k in range(i, n)), ZERO)
                    for c in range(n)) for h in range(n))
        for i in range(n))


def random_alpha(rng, n, complex_entries=True):
    def part():
        return rand_rat(rng, span=4) if complex_entries else 0
    return [Q(rand_rat(rng, nonzero=True, span=4), part())] + [
        Q(rand_rat(rng, span=4), part()) for _ in range(n - 1)]


def test_integer_step_rule_matches_the_scalar_route():
    rng = random.Random(89)
    for n in range(2, 9):
        for unit in (False, True):
            alpha = random_alpha(rng, n)
            if unit:  # alpha_0 = 1, as normal_form's Toeplitz step has
                alpha[0] = Q(1)
            t = toeplitz_upper(alpha)
            a = random_symmetric(rng, n)
            assert conjugate_form(a, t) == scalar_conjugate_form(a, t), n
            forms = tuple(random_symmetric(rng, n) for _ in range(n))
            b = random_symmetric(rng, n)
            m = rng.randint(1, n)
            assert transform_forms(forms, t, m, b) \
                == scalar_transform_forms(forms, t, m, b), (n, m)


def test_toeplitz_inverse_row_matches_invert_matrix():
    rng = random.Random(90)
    for n in range(1, 9):
        for complex_entries in (False, True):
            alpha = random_alpha(rng, n, complex_entries)
            beta = toeplitz_inverse_row(alpha)
            assert toeplitz_upper(beta) == tuple(map(
                tuple, invert_matrix(toeplitz_upper(alpha)))), n
    with pytest.raises(PreconditionViolated):
        toeplitz_inverse_row([ZERO, Q(1)])


def test_unipotent_block_check_names_the_entry():
    # every entry of the linear part, moved off the Jordan block
    for n in (2, 3, 4):
        for i in range(n):
            for j in range(n):
                comps = []
                for r in range(n):
                    lin = {c: Q(1) for c in (r, r + 1) if c < n}
                    if r == i:
                        lin[j] = lin.get(j, ZERO) + Q(1, -1)
                    comps.append(TruncatedSeries(n, 2, {
                        tuple(int(k == c) for k in range(n)): x
                        for c, x in lin.items()}))
                with pytest.raises(NotJordan, match=r"entry \(%d,%d\)$"
                                   % (i + 1, j + 1)):
                    normal_form(PolyMapGerm(comps))


def test_normal_form_conjugates_the_series_once(monkeypatch):
    # one solve of chi o N = F o chi, and no inverse of chi
    calls = []
    real = normalform.germ_solve

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    def inverted(*args, **kwargs):
        raise AssertionError("normal_form inverted its conjugator")

    monkeypatch.setattr(normalform, "germ_solve", counted)
    monkeypatch.setattr(series, "germ_inverse", inverted)
    assert not hasattr(normalform, "germ_inverse")
    rng = random.Random(85)
    for n in (2, 4, 6):
        del calls[:]
        normal_form(random_unipotent_germ(rng, n, 3))
        assert len(calls) == 1


def test_normal_form_steps_through_the_public_step_functions(monkeypatch):
    # the benchmark's per-layer metrics time the public step functions
    calls = {}
    names = ("eliminate_offdiagonal", "reduce_diagonal_tail",
             "transform_forms", "compose_steps")
    for name in names:
        def counted(*args, real=getattr(normalform, name), name=name):
            calls[name] = calls.get(name, 0) + 1
            return real(*args)
        monkeypatch.setattr(normalform, name, counted)
    nf = normal_form(random_unipotent_germ(random.Random(86), 4, 3))
    assert any(nf.alpha[1:])  # a Toeplitz step, so transform_forms runs
    assert calls["reduce_diagonal_tail"] == 1
    assert calls["transform_forms"] == 1
    assert calls["compose_steps"] == 1
    # one per component, and the tail reduction's secant probes
    assert calls["eliminate_offdiagonal"] > 4
