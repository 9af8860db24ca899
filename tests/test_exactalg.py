import random
from fractions import Fraction

import pytest

from blowdyn.errors import PreconditionViolated
from blowdyn.exactalg import (
    identity,
    imat,
    imat_combine,
    imat_entry,
    imat_mul,
    imat_of,
    imat_rows,
    imat_transpose,
    invert_matrix,
    invert_unimodular_int_matrix,
    solve_linear,
    triangular_diagonal,
    _gaussian_dot,
    _gaussian_mul,
)
from blowdyn.scalars import GaussianRational

from conftest import mat_mul, partitions

Q = GaussianRational
ZERO = Q(0)


def apply(rows, x):
    return [sum((Q(a) * b for a, b in zip(r, x)), ZERO) for r in rows]


def rank(rows):
    """Rank over Q by plain Fraction elimination (reference only)."""
    m = [[Fraction(a) for a in r] for r in rows]
    r = 0
    for c in range(len(m[0]) if m else 0):
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        for i in range(r + 1, len(m)):
            f = m[i][c] / m[r][c]
            m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
    return r


def random_01_system(rng, nrows, ncols, density=0.3):
    return [[1 if rng.random() < density else 0 for _ in range(ncols)]
            for _ in range(nrows)]


# -- solve_linear ------------------------------------------------------------

def test_solve_linear_consistent_square():
    rows = [[2, 1, 0], [0, 1, 1], [1, 0, 3]]
    x = [Q(1), Q(Fraction(-1, 2)), Q(2)]
    sol = solve_linear(rows, apply(rows, x))
    assert sol == (x, [])


def test_solve_linear_inconsistent_returns_none():
    rows = [[1, 1, 0], [0, 0, 1], [1, 1, 1]]
    assert solve_linear(rows, [Q(1), Q(2), Q(4)]) is None


def test_solve_linear_underdetermined_sets_free_unknowns_to_zero():
    # x1 + x2 = 3, x3 + x4 = 5: the pivots are x1 and x3, x2 and x4 are free
    rows = [[1, 1, 0, 0], [0, 0, 1, 1]]
    sol, basis = solve_linear(rows, [Q(3), Q(5)])
    assert sol == [Q(3), ZERO, Q(5), ZERO]
    # one null vector per free unknown: 1 there, 0 at the other free one
    assert basis == [[Q(-1), Q(1), ZERO, ZERO], [ZERO, ZERO, Q(-1), Q(1)]]


def test_solve_linear_empty_system():
    assert solve_linear([], []) == ([], [])


def test_solve_linear_sparse_01_systems():
    # 0/1 rows like the off-diagonal elimination system: every consistent
    # right-hand side is solved exactly, and free unknowns are left at zero
    rng = random.Random(5)
    for _ in range(40):
        nrows, ncols = rng.randint(2, 9), rng.randint(2, 9)
        rows = random_01_system(rng, nrows, ncols)
        x = [Q(Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
             for _ in range(ncols)]
        rhs = apply(rows, x)
        sol, basis = solve_linear(rows, rhs)
        assert apply(rows, sol) == rhs
        # the pivots are the columns independent of the ones before them;
        # every other unknown is free and must come back zero
        free = [j for j in range(ncols)
                if rank([r[:j + 1] for r in rows]) == rank([r[:j] for r in rows])]
        assert all(sol[j] == ZERO for j in free)
        # the null space: one vector per free unknown, killed by the rows,
        # with the identity on the free unknowns, so of full dimension
        assert len(basis) == len(free) == ncols - rank(rows)
        for b in basis:
            assert apply(rows, b) == [ZERO] * nrows
        assert [[b[j] for j in free] for b in basis] == [
            [Q(int(i == j)) for j in range(len(free))]
            for i in range(len(free))]


def test_solve_linear_sparse_01_inconsistent():
    # a duplicated row with a different right-hand side is inconsistent
    rng = random.Random(6)
    for _ in range(20):
        rows = random_01_system(rng, 4, 6, density=0.5)
        rows[0][0] = 1
        rows.append(list(rows[0]))
        rhs = [Q(rng.randint(-3, 3)) for _ in range(4)]
        rhs.append(rhs[0] + Q(1))
        assert solve_linear(rows, rhs) is None


def gauss_jordan(rows, rhs):
    """Column-by-column Gauss-Jordan elimination of the whole augmented
    matrix, read out as solve_linear's (x, basis) (reference only)."""
    m = [list(r) + [b] for r, b in zip(rows, rhs)]
    ncols = len(rows[0])
    pivots = []
    for col in range(ncols):
        r0 = len(pivots)
        p = next((r for r in range(r0, len(m)) if m[r][col]), None)
        if p is None:
            continue
        m[r0], m[p] = m[p], m[r0]
        m[r0] = [x / m[r0][col] for x in m[r0]]
        for r in range(len(m)):
            if r != r0 and m[r][col]:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[r0])]
        pivots.append(col)
    if any(m[r][ncols] for r in range(len(pivots), len(m))):
        return None
    x = [ZERO] * ncols
    for r, col in enumerate(pivots):
        x[col] = m[r][ncols]
    basis = []
    for f in range(ncols):
        if f not in pivots:
            b = [ZERO] * ncols
            b[f] = Q(1)
            for r, col in enumerate(pivots):
                b[col] = -m[r][f]
            basis.append(b)
    return x, basis


def test_solve_linear_matches_gauss_jordan():
    # one row at a time gives the same reduced form as eliminating the
    # whole matrix at once, on complex, rank-deficient and inconsistent
    # systems alike
    rng = random.Random(7)
    outcomes = set()
    for _ in range(150):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        rows = [[Q(Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                   rng.randint(-1, 1)) if rng.random() < 0.5 else ZERO
                 for _ in range(ncols)] for _ in range(nrows)]
        if nrows > 1 and rng.random() < 0.4:
            rows[-1] = [x + y for x, y in zip(rows[0], rows[-2])]
        rhs = [Q(rng.randint(-3, 3), rng.randint(-2, 2))
               for _ in range(nrows)]
        if rng.random() < 0.5:
            x = [Q(rng.randint(-3, 3)) for _ in range(ncols)]
            rhs = [sum((a * b for a, b in zip(r, x)), ZERO) for r in rows]
        want = gauss_jordan(rows, rhs)
        assert solve_linear(rows, rhs) == want
        outcomes.add(None if want is None else bool(want[1]))
    assert outcomes == {None, False, True}


# -- invert_matrix -------------------------------------------------------------

def test_invert_matrix_random():
    rng = random.Random(7)
    for n in (1, 2, 3, 5):
        for _ in range(10):
            a = [[Q(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                    rng.randint(-1, 1))
                  if rng.random() < 0.6 else ZERO for _ in range(n)]
                 for _ in range(n)]
            try:
                inv = invert_matrix(a)
            except PreconditionViolated:
                continue
            assert mat_mul(a, inv) == identity(n)
            assert mat_mul(inv, a) == identity(n)


def test_invert_matrix_needs_row_swap():
    a = [[ZERO, Q(1)], [Q(2), Q(3)]]
    assert mat_mul(a, invert_matrix(a)) == identity(2)


def test_invert_matrix_singular_raises():
    with pytest.raises(PreconditionViolated):
        invert_matrix([[Q(1), Q(2)], [Q(2), Q(4)]])
    with pytest.raises(PreconditionViolated):
        invert_matrix([[ZERO, ZERO, Q(1)], [Q(1), ZERO, ZERO],
                       [Q(3), ZERO, Q(5)]])


# -- invert_unimodular_int_matrix ----------------------------------------------

def test_invert_unimodular_int_matrix():
    e = [[1, 0, 0], [1, 1, 0], [2, 1, 1]]
    inv = invert_unimodular_int_matrix(e)
    assert inv == [[1, 0, 0], [-1, 1, 0], [-1, -1, 1]]
    assert all(isinstance(x, int) for row in inv for x in row)


def test_invert_unimodular_int_matrix_rejects_non_integral_inverse():
    with pytest.raises(PreconditionViolated):
        invert_unimodular_int_matrix([[2, 0], [0, 1]])


def _assert_integer_inverse(e, inv):
    assert all(type(x) is int for row in inv for x in row)
    n = len(e)
    for i in range(n):
        for j in range(n):
            assert sum(e[i][k] * inv[k][j] for k in range(n)) == int(i == j)


def test_invert_unimodular_int_matrix_on_every_chart_matrix():
    # the exponent matrices of every chart of every structure with n <= 7
    # against the Gaussian-rational inverse
    from blowdyn.blowup import projection_formulas
    from blowdyn.partition import build_structure

    checked = 0
    for n in range(2, 8):
        for mu in partitions(n):
            if mu[0] < 2:
                continue
            S = build_structure(mu, [Q(1)] * len(mu))
            for k in range(1, S.ell + 1):
                e = [list(r) for r in projection_formulas(S, k).forward]
                _assert_integer_inverse(e, invert_unimodular_int_matrix(e))
                checked += 1
    assert checked == 132


def test_invert_unimodular_int_matrix_random_unimodular():
    rng = random.Random(17)
    for _ in range(200):
        n = rng.randint(1, 6)
        e = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(3 * n):
            i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
            if i != j:
                f = rng.randint(-3, 3)
                e[i] = [a + f * b for a, b in zip(e[i], e[j])]
            if rng.random() < 0.3:
                e[i] = [-a for a in e[i]]
        rng.shuffle(e)
        _assert_integer_inverse(e, invert_unimodular_int_matrix(e))


# -- triangular_diagonal -------------------------------------------------------

def _permuted(a, p):
    return [[a[i][j] for j in p] for i in p]


def test_triangular_diagonal_reads_the_diagonal_under_any_ordering():
    rng = random.Random(23)
    for _ in range(100):
        n = rng.randint(1, 7)
        diag = [Q(rng.randint(-2, 2), rng.randint(-1, 1)) for _ in range(n)]
        a = [[diag[i] if i == j else
              Q(rng.randint(-3, 3), rng.randint(-1, 1)) if i < j else ZERO
              for j in range(n)] for i in range(n)]
        if rng.random() < 0.5:  # lower instead of upper triangular
            a = [list(col) for col in zip(*a)]
        want = {}
        for d in diag:
            want[d] = want.get(d, 0) + 1
        p = list(range(n))
        rng.shuffle(p)
        got = triangular_diagonal(_permuted(a, p))
        assert got == want
        # in diagonal order: first appearances along the permuted diagonal
        assert list(got) == list(dict.fromkeys(diag[i] for i in p))


@pytest.mark.parametrize("a", [
    [[0, 1], [1, 0]],
    [[1, 1, 0], [0, 1, 1], [1, 0, 1]],
    [[2, 0, 0, 0], [0, 1, 1, 0], [0, 1, 1, 0], [0, 0, 0, 3]],
])
def test_triangular_diagonal_refuses_a_cycle(a):
    with pytest.raises(PreconditionViolated):
        triangular_diagonal([[Q(x) for x in row] for row in a])


# -- integer matrices over one denominator -----------------------------------

def random_matrix(rng, rows, cols, complex_entries=True, density=0.7):
    return [[Q(Fraction(rng.randint(-9, 9), rng.randint(1, 6)),
               Fraction(rng.randint(-9, 9), rng.randint(1, 6))
               if complex_entries else 0)
             if rng.random() < density else ZERO
             for _ in range(cols)] for _ in range(rows)]


def test_imat_round_trip_and_normal_form():
    # equal matrices have equal triples, whatever denominator they are
    # written over, and a real matrix has no imaginary part
    rng = random.Random(41)
    for _ in range(60):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        a = random_matrix(rng, r, c, complex_entries=rng.random() < 0.5)
        m = imat(a)
        assert imat_rows(m) == tuple(map(tuple, a))
        assert (m[2] is None) == all(not x.b for row in a for x in row)
        for i in range(r):
            for j in range(c):
                assert imat_entry(m, i, j) == a[i][j]
        k = rng.randint(2, 9)
        den, re, im = m
        scaled = imat_of(den * k, [[x * k for x in row] for row in re],
                         im and [[x * k for x in row] for row in im])
        assert scaled == m
        assert imat_of(den, re, [[0] * c for _ in range(r)]) == imat(
            [[Q(x.re) for x in row] for row in a])
    assert imat([[ZERO, ZERO]]) == (1, ((0, 0),), None)


def test_imat_mul_and_combine_match_scalar_arithmetic():
    rng = random.Random(42)
    for _ in range(60):
        r, k, c = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        a = random_matrix(rng, r, k, complex_entries=rng.random() < 0.6)
        b = random_matrix(rng, k, c, complex_entries=rng.random() < 0.6)
        assert imat_mul(imat(a), imat(b)) == imat(mat_mul(a, b))
        assert imat_transpose(imat(a)) == imat(list(zip(*a)))
        terms = [(rng.randint(-5, 5), rng.randint(-5, 5) * rng.randint(0, 1),
                  random_matrix(rng, r, k, rng.random() < 0.5))
                 for _ in range(rng.randint(1, 4))]
        den = rng.randint(1, 7)
        want = [[sum((Q(cr, ci) * x[i][j] for cr, ci, x in terms), ZERO)
                 / den for j in range(k)] for i in range(r)]
        got = imat_combine([(cr, ci, imat(x)) for cr, ci, x in terms], den)
        assert got == imat(want)


def test_gaussian_integer_helpers():
    rng = random.Random(43)
    for _ in range(100):
        n = rng.randint(1, 6)
        x = [complex(rng.randint(-9, 9), rng.randint(-9, 9) * (i % 2))
             for i in range(n)]
        y = [complex(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in x]
        parts = [[int(z.real) for z in x], [int(z.imag) for z in x]]
        want = sum(a * b for a, b in zip(x, y))
        got = _gaussian_dot(parts[0], parts[1] if any(parts[1]) else None,
                            [int(z.real) for z in y], [int(z.imag) for z in y])
        assert complex(*got) == want
        g, h = [(rng.randint(-99, 99), rng.randint(-99, 99)) for _ in "gh"]
        assert complex(*_gaussian_mul(g, h)) == complex(*g) * complex(*h)
