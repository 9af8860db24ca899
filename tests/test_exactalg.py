import random
from fractions import Fraction

import pytest

from blowdyn.errors import PreconditionViolated
from blowdyn.exactalg import (
    identity,
    invert_matrix,
    invert_unimodular_int_matrix,
    mat_mul,
    solve_linear,
)
from blowdyn.scalars import GaussianRational

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


def _partitions(n, largest=None):
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def test_invert_unimodular_int_matrix_on_every_chart_matrix():
    # the exponent matrices of every chart of every structure with n <= 7
    # against the Gaussian-rational inverse
    from blowdyn.blowup import projection_formulas
    from blowdyn.partition import build_structure

    checked = 0
    for n in range(2, 8):
        for mu in _partitions(n):
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
